package masc

import (
	"fmt"
	"math/rand"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/obs"
)

// Strategy holds the tunables of the paper's claim algorithm (§4.3.3).
// The zero value is not useful; use DefaultStrategy.
type Strategy struct {
	// TargetOccupancy is the utilization a domain aims to stay at or
	// above; the paper uses 75 %.
	TargetOccupancy float64
	// MaxActivePrefixes is the number of prefixes a domain tries not to
	// exceed; the paper uses 2.
	MaxActivePrefixes int
	// ClaimLifetime is the lifetime requested for new claims; the Fig 2
	// simulation uses 30 days.
	ClaimLifetime time.Duration
}

// DefaultStrategy returns the paper's parameters.
func DefaultStrategy() Strategy {
	return Strategy{
		TargetOccupancy:   0.75,
		MaxActivePrefixes: 2,
		ClaimLifetime:     30 * 24 * time.Hour,
	}
}

// Holding is one claimed prefix with its allocation state.
type Holding struct {
	Prefix addr.Prefix
	// Active marks a prefix from which new addresses are assigned;
	// inactive prefixes drain as their allocations expire (§4.3.3).
	Active  bool
	Expires time.Time
	// Used counts addresses currently allocated out of this holding.
	Used uint64
}

// Block is an allocated address block, as leased to a MAAS.
type Block struct {
	Prefix  addr.Prefix // the covering holding's prefix at allocation time
	Size    uint64
	Expires time.Time
}

// BlockAllocator is the allocation engine of a leaf domain: it satisfies
// block requests from the domain's MAAS out of claimed prefixes, expanding
// them with the paper's rules. It is driven by a Ledger shared with (or
// synchronized to) the sibling domains.
type BlockAllocator struct {
	claimer
	blocks []*allocBlock
}

type allocBlock struct {
	size    uint64
	expires time.Time
	holding *Holding
}

// NewBlockAllocator returns an allocator claiming from ledger with the
// given strategy. rng drives the random choice among shortest-free blocks.
func NewBlockAllocator(strat Strategy, ledger *Ledger, rng *rand.Rand) *BlockAllocator {
	return &BlockAllocator{claimer: claimer{strat: strat, ledger: ledger, rng: rng}}
}

// Demand returns the number of addresses in live blocks.
func (a *BlockAllocator) Demand() uint64 {
	var n uint64
	for _, b := range a.blocks {
		n += b.size
	}
	return n
}

// Utilization returns Demand/Capacity, or 0 with no holdings.
func (a *BlockAllocator) Utilization() float64 { return a.utilization(a.Demand()) }

// Tick expires blocks and holdings as of now: expired blocks free their
// addresses; holdings that are past expiry and empty are released back to
// the ledger; non-empty holdings at expiry are renewed (active) or extended
// until their blocks drain (inactive).
func (a *BlockAllocator) Tick(now time.Time) {
	live := a.blocks[:0]
	for _, b := range a.blocks {
		if b.expires.After(now) {
			live = append(live, b)
		} else {
			b.holding.Used -= b.size
		}
	}
	a.blocks = live
	a.expire(now, func(h *Holding) bool { return h.Used == 0 })
}

// Request satisfies a block request of n addresses with the given lifetime,
// expanding holdings if needed. It returns the allocated block and true, or
// a zero Block and false when no space could be claimed.
func (a *BlockAllocator) Request(n uint64, lifetime time.Duration, now time.Time) (Block, bool) {
	a.Tick(now)
	if h := a.fit(n); h != nil {
		b := a.place(h, n, lifetime, now)
		a.emit(obs.MAASLease, b.Prefix)
		return b, true
	}
	if h := a.expand(n, now); h != nil {
		b := a.place(h, n, lifetime, now)
		a.emit(obs.MAASLease, b.Prefix)
		return b, true
	}
	a.Stats.Failures++
	return Block{}, false
}

// fit finds an active holding with room for n more addresses.
func (a *BlockAllocator) fit(n uint64) *Holding {
	var best *Holding
	for _, h := range a.holdings {
		if !h.Active || h.Used+n > h.Prefix.Size() {
			continue
		}
		// Prefer the fullest holding that still fits, packing tightly.
		if best == nil || h.Used > best.Used {
			best = h
		}
	}
	return best
}

func (a *BlockAllocator) place(h *Holding, n uint64, lifetime time.Duration, now time.Time) Block {
	h.Used += n
	exp := now.Add(lifetime)
	if exp.After(h.Expires) {
		// Applications may need the address longer than the claim; the
		// claim is renewed rather than cutting the lease short (§4.3.1).
		h.Expires = exp
	}
	a.blocks = append(a.blocks, &allocBlock{size: n, expires: exp, holding: h})
	return Block{Prefix: h.Prefix, Size: n, Expires: exp}
}

// expand implements the §4.3.3 expansion rules and returns a holding that
// can fit n addresses, or nil.
func (a *BlockAllocator) expand(n uint64, now time.Time) *Holding {
	demand := a.Demand() + n

	// Option 1: double an active prefix — typically the smallest — while
	// the post-double utilization stays at or above target (strict mode).
	if h := a.tryDouble(demand, n); h != nil {
		return h
	}

	// Option 2: an additional small prefix just sufficient for the
	// demand, while we hold fewer than MaxActivePrefixes.
	if a.activeCount() < a.strat.MaxActivePrefixes {
		if h := a.claimNew(addr.MaskLenFor(n), now); h != nil {
			if h.Prefix.Size() >= n {
				a.Stats.ExtraClaims++
				return h
			}
			a.removeHolding(h) // best-effort block too small for the request
		}
	}

	// Option 3: at the prefix limit and nothing doubled — claim a single
	// replacement prefix large enough for the whole current usage; old
	// prefixes become inactive and drain away.
	if h := a.claimNew(addr.MaskLenFor(demand), now); h != nil {
		if h.Prefix.Size() >= demand {
			for _, old := range a.holdings {
				if old != h {
					old.Active = false
				}
			}
			a.Stats.Replacements++
			return h
		}
		// The claim was a best-effort smaller block; keep it only if the
		// new block alone fits the request.
		if h.Prefix.Size() >= n {
			a.Stats.ExtraClaims++
			return h
		}
		a.removeHolding(h)
	}

	// Fallback: exceed the prefix-count target rather than fail the
	// request (the target is a goal, not a hard limit).
	if h := a.claimNew(addr.MaskLenFor(n), now); h != nil && h.Prefix.Size() >= n {
		a.Stats.ExtraClaims++
		return h
	} else if h != nil {
		a.removeHolding(h)
	}
	return nil
}

// tryDouble doubles active holdings (smallest first) until the request
// fits, subject to the occupancy test and ledger availability.
func (a *BlockAllocator) tryDouble(demand, n uint64) *Holding {
	for {
		smallest := a.smallestDoublable()
		if smallest == nil {
			return nil
		}
		newSize := a.Capacity() + smallest.Prefix.Size()
		if float64(demand) < a.strat.TargetOccupancy*float64(newSize) {
			return nil
		}
		if !a.double(smallest) {
			a.emit(obs.MASCCollision, smallest.Prefix)
			return nil
		}
		if smallest.Used+n <= smallest.Prefix.Size() {
			return smallest
		}
		// Doubled but still too small (tiny prefix, large block): loop.
	}
}

func (a *BlockAllocator) removeHolding(h *Holding) {
	a.ledger.Release(h.Prefix)
	a.emit(obs.MASCReleased, h.Prefix)
	a.emit(obs.BGPWithdraw, h.Prefix)
	for i, x := range a.holdings {
		if x == h {
			a.holdings = append(a.holdings[:i], a.holdings[i+1:]...)
			return
		}
	}
}

// String aids debugging.
func (a *BlockAllocator) String() string {
	return fmt.Sprintf("alloc{demand=%d cap=%d holdings=%d}", a.Demand(), a.Capacity(), len(a.holdings))
}
