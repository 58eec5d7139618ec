package masc

import (
	"math/rand"
	"time"

	"mascbgmp/internal/addr"
)

// SpaceProvider is the allocation engine of a provider (parent) domain: it
// claims address ranges from its own parent space — the global 224/4 for a
// top-level domain — sized so its children's claims fit below the target
// occupancy, and exposes its ranges as the space its children claim from.
//
// "The parent domain keeps track of how much of its current space has been
// allocated to itself and to its children. It claims more address space
// when the utilization exceeds a given threshold." (paper §4.1)
type SpaceProvider struct {
	claimer         // claims from the parent's space (the global one at top level)
	down    *Ledger // the space our children claim from (our holdings)
}

// NewSpaceProvider returns a provider claiming from up. Children claim from
// the provider's ChildLedger. A provider doubles without BlockAllocator's
// post-double ≥TargetOccupancy test: a parent that has filled 75 % of its
// single prefix could never pass it (doubling halves utilization), so the
// strict test would fragment parents into many small prefixes and defeat
// aggregation.
func NewSpaceProvider(strat Strategy, up *Ledger, rng *rand.Rand) *SpaceProvider {
	return &SpaceProvider{claimer: claimer{strat: strat, ledger: up, rng: rng}, down: NewLedger()}
}

// ChildLedger returns the ledger the provider's children claim from. Its
// spaces track the provider's holdings.
func (sp *SpaceProvider) ChildLedger() *Ledger { return sp.down }

// ChildDemand returns the number of addresses claimed by children within
// the provider's ranges.
func (sp *SpaceProvider) ChildDemand() uint64 { return sp.down.Taken() }

// Utilization returns ChildDemand/Capacity, or 0 with no holdings.
func (sp *SpaceProvider) Utilization() float64 { return sp.utilization(sp.ChildDemand()) }

// EnsureRoom expands the provider's space until a child claim of `need`
// addresses fits with overall utilization at or below target. It reports
// whether the headroom now exists. Call it before a child claim when the
// child's claim attempt failed or would push utilization over target.
func (sp *SpaceProvider) EnsureRoom(need uint64, now time.Time) bool {
	for tries := 0; tries < 34; tries++ {
		if sp.roomFor(need) {
			return true
		}
		if !sp.expandOnce(need, now) {
			return sp.roomFor(need)
		}
	}
	return sp.roomFor(need)
}

// roomFor reports whether a contiguous free block of `need` addresses
// exists in the child ledger and the post-claim utilization meets target.
func (sp *SpaceProvider) roomFor(need uint64) bool {
	maskLen := addr.MaskLenFor(need)
	if maskLen < 0 {
		return false
	}
	fits := false
	for _, h := range sp.holdings {
		free, ok := sp.down.taken.ShortestFree(h.Prefix)
		if ok && free[0].Len <= maskLen {
			fits = true
			break
		}
	}
	if !fits {
		return false
	}
	cap := sp.Capacity()
	if cap == 0 {
		return false
	}
	return float64(sp.ChildDemand()+need) <= sp.strat.TargetOccupancy*float64(cap)
}

// expandOnce performs one expansion step: double the smallest holding if
// the up-ledger allows, otherwise claim an additional just-sufficient
// prefix. It reports whether anything changed.
func (sp *SpaceProvider) expandOnce(need uint64, now time.Time) bool {
	if h := sp.smallestDoublable(); h != nil && sp.double(h) {
		sp.syncSpaces()
		return true
	}
	// Claim an additional prefix sized for the need plus headroom.
	want := need
	if sp.strat.TargetOccupancy > 0 {
		want = uint64(float64(need)/sp.strat.TargetOccupancy) + 1
	}
	if sp.claimNew(addr.MaskLenFor(want), now) == nil {
		return false
	}
	sp.Stats.ExtraClaims++
	sp.syncSpaces()
	return true
}

// Tick renews or releases holdings as of now: holdings past expiry with no
// child claims inside are released; occupied ones are renewed.
func (sp *SpaceProvider) Tick(now time.Time) {
	sp.expire(now, func(h *Holding) bool { return sp.down.TakenWithin(h.Prefix) == 0 })
	sp.syncSpaces()
}

// ShedIdle marks holdings with no child claims inactive when the provider
// holds more than MaxActivePrefixes, letting them expire — the recycling
// that lets aggregation recover after the startup transient.
func (sp *SpaceProvider) ShedIdle() {
	active := sp.activeCount()
	for _, h := range sp.holdings {
		if active <= sp.strat.MaxActivePrefixes {
			return
		}
		if h.Active && sp.down.TakenWithin(h.Prefix) == 0 {
			h.Active = false
			active--
		}
	}
}

func (sp *SpaceProvider) syncSpaces() {
	spaces := make([]addr.Prefix, 0, len(sp.holdings))
	for _, h := range sp.holdings {
		if h.Active {
			spaces = append(spaces, h.Prefix)
		}
	}
	sp.down.SetSpaces(spaces)
}
