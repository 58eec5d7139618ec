package masc

import (
	"math/rand"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/wire"
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
	strat    Strategy
	up       *Ledger // the space we claim from (parent's or global)
	down     *Ledger // the space our children claim from (our holdings)
	rng      *rand.Rand
	holdings []*Holding

	obs       *obs.Observer
	obsDomain wire.DomainID

	// Stats counts expansion events.
	Stats AllocStats
}

// SetObserver routes the provider's allocation events (claims, collisions,
// wins, renewals, releases, and the mirrored BGP route injections) to o,
// scoped to domain. Nil disables observation.
func (sp *SpaceProvider) SetObserver(o *obs.Observer, domain wire.DomainID) {
	sp.obs, sp.obsDomain = o, domain
}

func (sp *SpaceProvider) emit(kind obs.Kind, p addr.Prefix) {
	if sp.obs != nil {
		sp.obs.Emit(obs.Event{Kind: kind, Domain: sp.obsDomain, Prefix: p})
	}
}

// NewSpaceProvider returns a provider claiming from up. Children claim from
// the provider's ChildLedger. A provider doubles without BlockAllocator's
// post-double ≥TargetOccupancy test: a parent that has filled 75 % of its
// single prefix could never pass it (doubling halves utilization), so the
// strict test would fragment parents into many small prefixes and defeat
// aggregation.
func NewSpaceProvider(strat Strategy, up *Ledger, rng *rand.Rand) *SpaceProvider {
	return &SpaceProvider{strat: strat, up: up, down: NewLedger(), rng: rng}
}

// ChildLedger returns the ledger the provider's children claim from. Its
// spaces track the provider's holdings.
func (sp *SpaceProvider) ChildLedger() *Ledger { return sp.down }

// Holdings returns copies of the provider's claimed ranges.
func (sp *SpaceProvider) Holdings() []Holding {
	out := make([]Holding, 0, len(sp.holdings))
	for _, h := range sp.holdings {
		out = append(out, *h)
	}
	return out
}

// Capacity returns the total size of the provider's ranges.
func (sp *SpaceProvider) Capacity() uint64 {
	var n uint64
	for _, h := range sp.holdings {
		n += h.Prefix.Size()
	}
	return n
}

// ChildDemand returns the number of addresses claimed by children within
// the provider's ranges.
func (sp *SpaceProvider) ChildDemand() uint64 { return sp.down.Taken() }

// Utilization returns ChildDemand/Capacity, or 0 with no holdings.
func (sp *SpaceProvider) Utilization() float64 {
	c := sp.Capacity()
	if c == 0 {
		return 0
	}
	return float64(sp.ChildDemand()) / float64(c)
}

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
	// Grow enough for the pending child claim plus target headroom.
	var smallest *Holding
	for _, h := range sp.holdings {
		if !h.Active || !sp.up.CanDouble(h.Prefix) {
			continue
		}
		if smallest == nil || h.Prefix.Size() < smallest.Prefix.Size() {
			smallest = h
		}
	}
	if smallest != nil {
		if d, ok := sp.up.Double(smallest.Prefix); ok {
			old := smallest.Prefix
			smallest.Prefix = d
			sp.Stats.Doublings++
			sp.syncSpaces()
			// A doubling is a claim that succeeds immediately in the
			// engine model; the route swap mirrors BGP re-injection.
			sp.emit(obs.MASCClaim, d)
			sp.emit(obs.MASCWon, d)
			sp.emit(obs.BGPWithdraw, old)
			sp.emit(obs.BGPAnnounce, d)
			return true
		}
	}
	// Claim an additional prefix sized for the need plus headroom.
	want := need
	if sp.strat.TargetOccupancy > 0 {
		want = uint64(float64(need)/sp.strat.TargetOccupancy) + 1
	}
	maskLen := addr.MaskLenFor(want)
	if maskLen < 0 {
		return false
	}
	p, ok := sp.up.PickClaim(maskLen, sp.rng)
	if !ok || !sp.up.Claim(p) {
		sp.emit(obs.MASCCollision, p)
		return false
	}
	sp.holdings = append(sp.holdings, &Holding{
		Prefix:  p,
		Active:  true,
		Expires: now.Add(sp.strat.ClaimLifetime),
	})
	sp.Stats.ExtraClaims++
	sp.syncSpaces()
	sp.emit(obs.MASCClaim, p)
	sp.emit(obs.MASCWon, p)
	sp.emit(obs.BGPAnnounce, p)
	return true
}

// Tick renews or releases holdings as of now: holdings past expiry with no
// child claims inside are released; occupied ones are renewed.
func (sp *SpaceProvider) Tick(now time.Time) {
	kept := sp.holdings[:0]
	for _, h := range sp.holdings {
		if !h.Expires.After(now) {
			if sp.down.TakenWithin(h.Prefix) == 0 {
				sp.up.Release(h.Prefix)
				sp.Stats.Releases++
				sp.emit(obs.MASCReleased, h.Prefix)
				sp.emit(obs.BGPWithdraw, h.Prefix)
				continue
			}
			h.Expires = now.Add(sp.strat.ClaimLifetime)
			sp.emit(obs.MASCRenewed, h.Prefix)
		}
		kept = append(kept, h)
	}
	sp.holdings = kept
	sp.syncSpaces()
}

// ShedIdle marks holdings with no child claims inactive when the provider
// holds more than MaxActivePrefixes, letting them expire — the recycling
// that lets aggregation recover after the startup transient.
func (sp *SpaceProvider) ShedIdle() {
	active := 0
	for _, h := range sp.holdings {
		if h.Active {
			active++
		}
	}
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

// AdvertisedPrefixes returns the provider's prefixes as they would be
// injected into BGP after CIDR aggregation — the per-domain contribution to
// the G-RIB.
func (sp *SpaceProvider) AdvertisedPrefixes() []addr.Prefix {
	s := addr.NewSet()
	for _, h := range sp.holdings {
		s.Add(h.Prefix)
	}
	return s.Aggregated().Prefixes()
}
