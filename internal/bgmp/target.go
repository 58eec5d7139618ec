// Package bgmp implements the Border Gateway Multicast Protocol (paper §5):
// construction of inter-domain bidirectional shared trees rooted at each
// group's root domain, plus source-specific branches.
//
// A Component runs on each border router next to the BGP-lite speaker and
// the domain's MIGP (Multicast Interior Gateway Protocol). Multicast
// forwarding state is kept as (*,G) entries — a parent target toward the
// root domain plus child targets — and (S,G) entries for source-specific
// branches. Data received from any target is forwarded to all other targets
// in the entry (bidirectional forwarding).
package bgmp

import (
	"cmp"
	"fmt"
	"slices"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/wire"
)

// Target identifies where a forwarding entry sends data: an external BGMP
// peer, or the domain's MIGP component. An MIGP target may carry the
// internal border router it leads toward (used when relaying joins through
// the domain); for forwarding purposes all MIGP targets are one target.
type Target struct {
	// MIGP marks the domain-interior target.
	MIGP bool
	// Router is the external peer, or for MIGP targets the internal
	// border router the join must reach (zero when not applicable).
	Router wire.RouterID
}

// MIGPTarget is the generic domain-interior target.
var MIGPTarget = Target{MIGP: true}

// PeerTarget returns the target for an external BGMP peer.
func PeerTarget(r wire.RouterID) Target { return Target{Router: r} }

// MIGPToward returns the interior target leading to border router r.
func MIGPToward(r wire.RouterID) Target { return Target{MIGP: true, Router: r} }

// key normalizes the target for set membership: all MIGP targets collapse
// into one, because the domain interior is a single forwarding target.
func (t Target) key() Target {
	if t.MIGP {
		return MIGPTarget
	}
	return t
}

// String implements fmt.Stringer.
func (t Target) String() string {
	if t.MIGP {
		if t.Router != 0 {
			return fmt.Sprintf("migp(->%d)", t.Router)
		}
		return "migp"
	}
	return fmt.Sprintf("peer(%d)", t.Router)
}

// cmpTargets orders targets by router ID, MIGP targets first on a tie: the
// order an entry keeps its children in, so listings never depend on the
// order the joins came in.
func cmpTargets(a, b Target) int {
	if a.Router != b.Router || a.MIGP == b.MIGP {
		return cmp.Compare(a.Router, b.Router)
	}
	if a.MIGP {
		return -1
	}
	return 1
}

// upstream is where an entry leads toward the root domain (or, for a
// source-specific branch, the source): what one RIB answer resolves to.
// It holds no backup parent: PeerDown reads that from the G-RIB when the
// parent's session dies (backupLocked), so it cannot go stale.
type upstream struct {
	parent Target
	// root marks a (*,G) entry in the group's root domain (no BGP next
	// hop; the parent target is the MIGP component).
	root bool
}

// entry is shared bookkeeping for (*,G) and (S,G) state: an upstream and
// the child targets. Children are tracked exactly (an MIGP child toward
// border X is distinct from the generic interior-member child) so prunes
// from one internal path do not erase another's interest; the forwarding
// view deduplicates MIGP-kind targets.
type entry struct {
	upstream
	// sharedClone marks (S,G) state instantiated from the (*,G) entry —
	// shared-tree prune state rather than a source-specific branch. When
	// its child list empties it becomes a negative cache (drop S's
	// packets here) instead of being torn down.
	sharedClone bool
	// children holds each child target once, in cmpTargets order: in one,
	// the entry's own array, while there is one at most, and otherwise in
	// an array of the Component's whose capacity is the next power of two
	// (fitChildrenLocked).
	children []Target
	one      [1]Target
}

func (e *entry) hasChild(t Target) bool {
	_, ok := slices.BinarySearchFunc(e.children, t, cmpTargets)
	return ok
}

// appendTargets appends the deduplicated full target list (parent +
// children) to dst and returns it: the interior first when the parent or
// any child is on it, then the peers in router order, the parent merged in
// among them in one pass over the sorted children. A caller forwards to the
// list after unlocking, so it lists into storage of its own while it holds
// the lock (Component.fanOutLocked): nothing reads an entry outside it.
func (e *entry) appendTargets(dst []Target) []Target {
	p := e.parent.key()
	if p.MIGP || slices.ContainsFunc(e.children, func(t Target) bool { return t.MIGP }) {
		dst = append(dst, MIGPTarget)
	}
	merged := p.MIGP
	for _, c := range e.children {
		switch {
		case c.MIGP:
			continue
		case merged:
		case p.Router < c.Router:
			dst, merged = append(dst, p), true
		case p == c:
			merged = true
		}
		dst = append(dst, c)
	}
	if !merged {
		dst = append(dst, p)
	}
	return dst
}

// sgKey indexes (S,G) entries.
type sgKey struct {
	src   addr.Addr
	group addr.Addr
}
