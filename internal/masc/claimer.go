package masc

import (
	"math/rand"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/obs"
	"mascbgmp/internal/wire"
)

// claimer is what the two instant-claim engines share: the prefixes a
// domain holds out of one ledger and the three steps that change them —
// claim a fresh prefix, double one in place, renew or release at expiry —
// with the events each step emits. BlockAllocator and SpaceProvider embed
// it and keep only what differs: what counts as demand and when to expand.
type claimer struct {
	strat    Strategy
	ledger   *Ledger // the space claimed from
	rng      *rand.Rand
	holdings []*Holding

	obs       *obs.Observer
	obsDomain wire.DomainID

	// Stats counts expansion events for the ablation benchmarks.
	Stats AllocStats
}

// AllocStats counts allocator events.
type AllocStats struct {
	Doublings    int
	ExtraClaims  int
	Replacements int
	Failures     int
	Releases     int
}

// SetObserver routes the engine's events (claims, collisions, wins,
// renewals, releases, MAAS leases, and the mirrored BGP route injections)
// to o, scoped to domain. Nil disables observation.
func (c *claimer) SetObserver(o *obs.Observer, domain wire.DomainID) {
	c.obs, c.obsDomain = o, domain
}

func (c *claimer) emit(kind obs.Kind, p addr.Prefix) {
	c.obs.Emit(obs.Event{Kind: kind, Domain: c.obsDomain, Prefix: p})
}

// Holdings returns copies of the current holdings, in claim order.
func (c *claimer) Holdings() []Holding {
	out := make([]Holding, 0, len(c.holdings))
	for _, h := range c.holdings {
		out = append(out, *h)
	}
	return out
}

// Capacity returns the number of addresses across all holdings.
func (c *claimer) Capacity() uint64 {
	var n uint64
	for _, h := range c.holdings {
		n += h.Prefix.Size()
	}
	return n
}

// utilization returns demand/Capacity, or 0 with no holdings.
func (c *claimer) utilization(demand uint64) float64 {
	if capacity := c.Capacity(); capacity > 0 {
		return float64(demand) / float64(capacity)
	}
	return 0
}

// activeCount returns the number of active holdings.
func (c *claimer) activeCount() int {
	n := 0
	for _, h := range c.holdings {
		if h.Active {
			n++
		}
	}
	return n
}

// AdvertisedPrefixes returns the domain's claimed prefixes as they would be
// injected into BGP after CIDR aggregation — the per-domain contribution to
// the G-RIB.
func (c *claimer) AdvertisedPrefixes() []addr.Prefix {
	s := addr.NewSet()
	for _, h := range c.holdings {
		s.Add(h.Prefix)
	}
	return s.Aggregated().Prefixes()
}

// smallestDoublable returns the smallest active holding the ledger would
// let double, nil when there is none.
func (c *claimer) smallestDoublable() *Holding {
	var smallest *Holding
	for _, h := range c.holdings {
		if !h.Active || !c.ledger.CanDouble(h.Prefix) {
			continue
		}
		if smallest == nil || h.Prefix.Size() < smallest.Prefix.Size() {
			smallest = h
		}
	}
	return smallest
}

// double grows h into its covering prefix and swaps the advertised route,
// reporting whether the ledger allowed it. The model-level claim round is
// instantaneous; its span still lands in the trace so allocation activity
// lines up with the protocol spans on the same timeline.
func (c *claimer) double(h *Holding) bool {
	d, ok := c.ledger.Double(h.Prefix)
	if !ok {
		return false
	}
	old := h.Prefix
	h.Prefix = d
	c.Stats.Doublings++
	sp := c.obs.Tracer().Begin(obs.SpanClaim, obs.Event{Domain: c.obsDomain, Prefix: d})
	c.emit(obs.MASCClaim, d)
	c.emit(obs.MASCWon, d)
	sp.End()
	c.emit(obs.BGPWithdraw, old)
	c.emit(obs.BGPAnnounce, d)
	return true
}

// claimNew claims a fresh prefix of the desired mask length (best effort:
// the ledger may offer a smaller one) and records it as an active holding.
func (c *claimer) claimNew(maskLen int, now time.Time) *Holding {
	if maskLen < 0 {
		return nil
	}
	p, ok := c.ledger.PickClaim(maskLen, c.rng)
	if !ok || !c.ledger.Claim(p) {
		c.emit(obs.MASCCollision, p)
		return nil
	}
	h := &Holding{Prefix: p, Active: true, Expires: now.Add(c.strat.ClaimLifetime)}
	c.holdings = append(c.holdings, h)
	sp := c.obs.Tracer().Begin(obs.SpanClaim, obs.Event{Domain: c.obsDomain, Prefix: p})
	c.emit(obs.MASCClaim, p)
	c.emit(obs.MASCWon, p)
	c.emit(obs.BGPAnnounce, p)
	sp.End()
	return h
}

// expire settles the holdings past expiry as of now: an idle one goes back
// to the ledger, any other is renewed — a claim must outlive what was
// allocated out of it.
func (c *claimer) expire(now time.Time, idle func(*Holding) bool) {
	kept := c.holdings[:0]
	for _, h := range c.holdings {
		if !h.Expires.After(now) {
			if idle(h) {
				c.ledger.Release(h.Prefix)
				c.Stats.Releases++
				c.emit(obs.MASCReleased, h.Prefix)
				c.emit(obs.BGPWithdraw, h.Prefix)
				continue
			}
			h.Expires = now.Add(c.strat.ClaimLifetime)
			c.emit(obs.MASCRenewed, h.Prefix)
		}
		kept = append(kept, h)
	}
	c.holdings = kept
}
