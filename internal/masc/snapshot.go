package masc

import (
	"sort"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/obs"
)

// Node restart survival. A MASC node's claim state is expensive: a pending
// claim has been listening for collisions for up to 48 hours, and a lost
// waiting period means lost time for the whole domain (§4.1). Snapshot
// captures the durable protocol state — holdings with their absolute
// expiries, pending claims with the absolute end of their waiting periods,
// and both ledger views — and Restore rebuilds it on a freshly configured
// node, re-arming every timer with its remaining duration. A restarted
// allocator therefore resumes mid-wait instead of starting its claims
// over.

// PendingSnapshot is one in-flight claim's durable state.
type PendingSnapshot struct {
	Prefix   addr.Prefix
	ClaimID  uint64
	Lifetime time.Duration
	// Size and Attempts restore the retry bookkeeping (original request
	// size, attempts consumed so far).
	Size     uint64
	Attempts int
	// MatureAt is the absolute instant the waiting period ends.
	MatureAt time.Time
}

// Snapshot is a Node's durable claim state, with all slices in canonical
// (sorted) order so equal states snapshot identically.
type Snapshot struct {
	Holdings    []Holding
	Pending     []PendingSnapshot
	NextClaimID uint64
	// Spaces is the claimable space (parent-advertised, or 224/4).
	Spaces []addr.Prefix
	// Heard is the node's view of taken space: sibling claims, own
	// pending claims, and own holdings.
	Heard []addr.Prefix
	// ChildClaims is the recorded set of claims by child domains.
	ChildClaims []addr.Prefix
}

// Snapshot captures the node's claim state for a later Restore.
func (n *Node) Snapshot() Snapshot {
	n.mu.Lock()
	defer n.mu.Unlock()
	s := Snapshot{NextClaimID: n.nextClaimID}
	for _, h := range n.holdings {
		s.Holdings = append(s.Holdings, *h)
	}
	sort.Slice(s.Holdings, func(i, j int) bool {
		return addr.Compare(s.Holdings[i].Prefix, s.Holdings[j].Prefix) < 0
	})
	for p, pc := range n.pending {
		s.Pending = append(s.Pending, PendingSnapshot{
			Prefix:   p,
			ClaimID:  pc.claimID,
			Lifetime: pc.life,
			Size:     pc.size,
			Attempts: pc.attempts,
			MatureAt: pc.matureAt,
		})
	}
	sort.Slice(s.Pending, func(i, j int) bool {
		return addr.Compare(s.Pending[i].Prefix, s.Pending[j].Prefix) < 0
	})
	s.Spaces = n.heard.Spaces()
	s.Heard = n.heard.Claims()
	s.ChildClaims = n.childClaims.Claims()
	return s
}

// Restore loads a snapshot into a freshly configured node, modeling a
// restart that kept its durable allocation state: holdings come back with
// their original expiries (and re-armed lifetime timers), pending claims
// resume their waiting periods with the time already served still
// counting, and the ledgers are rebuilt so future claim selection avoids
// everything the pre-crash node knew was taken. Emits one masc.restored
// event per restored node.
//
// Restore replaces any claim state the node already holds; peerings
// (parent, siblings, children) are configuration, not state, and must be
// re-established by the owner as on first boot.
func (n *Node) Restore(s Snapshot) {
	now := n.cfg.Clock.Now()
	n.mu.Lock()
	for p, pc := range n.pending {
		n.abandonLocked(p, pc) // from the ledger replaced next
	}
	n.heard = NewLedger(s.Spaces...)
	for _, p := range s.Heard {
		n.heard.Record(p)
	}
	n.childClaims = NewLedger()
	for _, p := range s.ChildClaims {
		n.childClaims.Record(p)
	}
	n.nextClaimID = s.NextClaimID
	n.holdings = nil
	for i := range s.Holdings {
		h := s.Holdings[i]
		n.holdings = append(n.holdings, &h)
		life := h.Expires.Sub(now)
		if life < 0 {
			life = 0
		}
		n.scheduleExpiry(h.Prefix, life)
	}
	n.pending = map[addr.Prefix]*pendingClaim{}
	for _, ps := range s.Pending {
		pc := &pendingClaim{
			prefix:   ps.Prefix,
			claimID:  ps.ClaimID,
			life:     ps.Lifetime,
			size:     ps.Size,
			attempts: ps.Attempts,
			matureAt: ps.MatureAt,
		}
		remaining := ps.MatureAt.Sub(now)
		if remaining < 0 {
			remaining = 0
		}
		pc.timer = n.cfg.Clock.AfterFunc(remaining, func() { n.claimMatured(pc) })
		n.pending[ps.Prefix] = pc
	}
	n.eventLocked(obs.MASCRestored, addr.Prefix{})
	n.flushLocked()
}
