package obs

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"

	"mascbgmp/internal/wire"
)

// histBuckets is the fixed bucket count: bucket 0 holds the value 0,
// bucket i (1..64) holds [2^(i-1), 2^i). Power-of-two bucketing keeps
// observation lock-free (one bits.Len64 plus an atomic add) and makes
// snapshots mergeable by plain addition, so multi-trial benchmark
// percentiles stay deterministic regardless of observation order.
const histBuckets = 65

// Histogram is a fixed-bucket latency/size histogram. The zero value is
// ready to use; a nil *Histogram ignores observations, so instrumented hot
// paths can hold one unconditionally.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value. Safe on nil and for concurrent use.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram: a plain value that
// merges by addition and answers quantile queries.
type HistSnapshot struct {
	Count   uint64
	Sum     uint64
	Buckets [histBuckets]uint64
}

// Merge adds other into s. Because buckets are fixed, merging is exact and
// commutative — trial order cannot change the merged distribution.
func (s *HistSnapshot) Merge(other HistSnapshot) {
	s.Count += other.Count
	s.Sum += other.Sum
	for i, v := range other.Buckets {
		s.Buckets[i] += v
	}
}

// bucketBounds returns bucket i's value range [lo, hi].
func bucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 0
	}
	lo = uint64(1) << (i - 1)
	if i == 64 {
		return lo, ^uint64(0)
	}
	return lo, uint64(1)<<i - 1
}

// Quantile returns an estimate of the q-th quantile (q in [0,1]) by linear
// interpolation within the covering bucket. Zero when the histogram is
// empty.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based position of the target observation.
	rank := uint64(q*float64(s.Count-1)) + 1
	var seen uint64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if seen+n >= rank {
			lo, hi := bucketBounds(i)
			// Interpolate the rank's position inside the bucket.
			frac := float64(rank-seen-1) / float64(n)
			return lo + uint64(frac*float64(hi-lo))
		}
		seen += n
	}
	_, hi := bucketBounds(histBuckets - 1)
	return hi
}

// Mean returns the exact mean of all observations (sums are exact even
// though quantiles are bucketed). Zero when empty.
func (s HistSnapshot) Mean() uint64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / s.Count
}

// Hist enumerates the histograms the instrumented layers observe into.
// Values are nanoseconds unless the name says otherwise.
type Hist uint8

const (
	HistJoinGraft     Hist = iota + 1 // member join → branch grafted
	HistClaimConverge                 // claim announced → claim won
	HistDetect                        // fault injected → session declared down
	HistReroute                       // fault injected → delivery restored
	HistReconverge                    // restart → direct path reconverged
	HistForwardWork                   // per-packet forwarding fan-out (copies)

	histCount // sentinel; keep last
)

var histNames = [histCount]string{
	HistJoinGraft:     "join_graft_ns",
	HistClaimConverge: "claim_converge_ns",
	HistDetect:        "detect_ns",
	HistReroute:       "reroute_ns",
	HistReconverge:    "reconverge_ns",
	HistForwardWork:   "forward_fanout",
}

// String returns the histogram's exposition name, e.g. "detect_ns".
func (h Hist) String() string { return nameOf(histNames[:], "hist", uint8(h)) }

func (h Hist) valid() bool { return h != 0 && h < histCount }

// Histogram returns the histogram registered under (h, domain, router),
// creating it on first use. Safe on nil, and an undeclared h has no
// histogram (both return a nil, no-op histogram).
func (o *Observer) Histogram(h Hist, domain wire.DomainID, router wire.RouterID) *Histogram {
	if o == nil || !h.valid() {
		return nil
	}
	k := key[Hist]{h, scope{domain, router}}
	o.regMu.Lock()
	defer o.regMu.Unlock()
	hist := o.hists[k]
	if hist == nil {
		hist = &Histogram{}
		o.hists[k] = hist
	}
	return hist
}

// Hist returns the snapshotted histogram for one key (the zero snapshot
// when it was never registered).
func (s Snapshot) Hist(h Hist, domain wire.DomainID, router wire.RouterID) HistSnapshot {
	return s.hists[key[Hist]{h, scope{domain, router}}]
}

// HistTotals merges each histogram name's snapshots across every scope —
// the per-suite distributions the benchmark result model serializes.
func (s Snapshot) HistTotals() map[string]HistSnapshot {
	totals := make(map[string]HistSnapshot, len(s.hists))
	for k, h := range s.hists {
		name := k.id.String()
		t := totals[name]
		t.Merge(h)
		totals[name] = t
	}
	return totals
}

// promLabels renders a scope, plus an optional extra label, as a
// Prometheus label set.
func promLabels(s scope, extra string) string {
	parts := s.labels(`%s="%d"`)
	if extra != "" {
		parts = append(parts, extra)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Prometheus renders the snapshot as Prometheus text exposition format:
// every counter as a `_total` counter and every histogram as cumulative
// `_bucket`/`_sum`/`_count` series with power-of-two `le` bounds. A name
// is its dotted form with '.' as '_' (TestNameTablesExhaustive holds the
// tables to that alphabet). The output is sorted and deterministic: equal
// snapshots render to identical bytes, so two same-seed runs produce
// byte-identical files.
func (s Snapshot) Prometheus() string {
	var b strings.Builder
	lastHelp := ""
	for _, k := range sortedKeys(s.counts) {
		v := s.counts[k]
		if v == 0 {
			continue
		}
		name := strings.ReplaceAll(k.id.String(), ".", "_") + "_total"
		if name != lastHelp {
			fmt.Fprintf(&b, "# TYPE %s counter\n", name)
			lastHelp = name
		}
		fmt.Fprintf(&b, "%s%s %d\n", name, promLabels(k.scope, ""), v)
	}
	lastHelp = ""
	for _, k := range sortedKeys(s.hists) {
		h := s.hists[k]
		if h.Count == 0 {
			continue
		}
		name := strings.ReplaceAll(k.id.String(), ".", "_")
		if name != lastHelp {
			fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
			lastHelp = name
		}
		var cum uint64
		for i := 0; i < histBuckets-1; i++ {
			n := h.Buckets[i]
			if n == 0 {
				continue
			}
			cum += n
			_, hi := bucketBounds(i)
			le := fmt.Sprintf("le=%q", fmt.Sprint(hi))
			fmt.Fprintf(&b, "%s_bucket%s %d\n", name, promLabels(k.scope, le), cum)
		}
		fmt.Fprintf(&b, "%s_bucket%s %d\n", name, promLabels(k.scope, `le="+Inf"`), h.Count)
		fmt.Fprintf(&b, "%s_sum%s %d\n", name, promLabels(k.scope, ""), h.Sum)
		fmt.Fprintf(&b, "%s_count%s %d\n", name, promLabels(k.scope, ""), h.Count)
	}
	return b.String()
}
