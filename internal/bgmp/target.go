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
	"fmt"
	"sort"

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

// entry is shared bookkeeping for (*,G) and (S,G) state: a parent target
// and a set of child targets. Children are tracked exactly (an MIGP child
// toward border X is distinct from the generic interior-member child) so
// prunes from one internal path do not erase another's interest; the
// forwarding view deduplicates MIGP-kind targets.
type entry struct {
	parent   Target
	children map[Target]bool
	// root marks a (*,G) entry in the group's root domain (no BGP next
	// hop; the parent target is the MIGP component).
	root bool
	// sharedClone marks (S,G) state instantiated from the (*,G) entry —
	// shared-tree prune state rather than a source-specific branch. When
	// its child list empties it becomes a negative cache (drop S's
	// packets here) instead of being torn down.
	sharedClone bool
	// backup is the precomputed fallback parent for a (*,G) entry — the
	// runner-up G-RIB candidate, resolved at join time and refreshed on
	// every RouteChanged — valid when hasBackup. PeerDown switches the
	// parent to it without re-querying the G-RIB (1:1 protection).
	backup    Target
	hasBackup bool
	// targetCache is the memoized result of targets(), rebuilt lazily
	// after any parent/child mutation. Entries see one mutation per
	// join/prune but many forwarding lookups, so caching turns the
	// per-packet sort+dedup into a slice read.
	targetCache []Target
}

func newEntry(parent Target, root bool) *entry {
	return &entry{parent: parent, children: make(map[Target]bool, 2), root: root}
}

func (e *entry) addChild(t Target) {
	e.children[t] = true
	e.targetCache = nil
}

func (e *entry) removeChild(t Target) {
	delete(e.children, t)
	e.targetCache = nil
}

// setParent reparents the entry (failover or G-RIB change).
func (e *entry) setParent(t Target) {
	e.parent = t
	e.targetCache = nil
}

// removeMIGPChildren drops every interior-side child: a source-specific
// prune from the domain interior means the interior as a whole gets S via
// another border now.
func (e *entry) removeMIGPChildren() {
	for t := range e.children {
		if t.MIGP {
			delete(e.children, t)
		}
	}
	e.targetCache = nil
}

// targets returns the deduplicated full target list (parent + children).
// Callers must not mutate the returned slice: it is the shared cache.
func (e *entry) targets() []Target {
	if e.targetCache != nil {
		return e.targetCache
	}
	seen := make(map[Target]bool, len(e.children)+1)
	seen[e.parent.key()] = true
	out := make([]Target, 1, len(e.children)+1)
	out[0] = e.parent.key()
	for c := range e.children {
		k := c.key()
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MIGP != out[j].MIGP {
			return out[i].MIGP
		}
		return out[i].Router < out[j].Router
	})
	e.targetCache = out
	return out
}

// clone copies the entry into (S,G) shared-tree state (used when source-
// specific state is instantiated from the (*,G) entry, per §5.3).
func (e *entry) clone() *entry {
	c := newEntry(e.parent, e.root)
	c.sharedClone = true
	for t := range e.children {
		c.children[t] = true
	}
	return c
}

// sgKey indexes (S,G) entries.
type sgKey struct {
	src   addr.Addr
	group addr.Addr
}
