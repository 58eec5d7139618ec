package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestNilHistogramIgnoresObservations(t *testing.T) {
	var h *Histogram
	h.Observe(42)
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 {
		t.Fatalf("nil histogram snapshot = %+v", s)
	}
	if q := s.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %d", q)
	}
	if m := s.Mean(); m != 0 {
		t.Fatalf("empty mean = %d", m)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	var h Histogram
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Sum != 5050 {
		t.Fatalf("count/sum = %d/%d, want 100/5050", s.Count, s.Sum)
	}
	if m := s.Mean(); m != 50 {
		t.Fatalf("mean = %d, want 50", m)
	}
	// Quantiles are bucket-interpolated: p50 of 1..100 must land inside
	// [33..64] (the bucket holding rank 50) and below p99.
	p50, p99 := s.Quantile(0.50), s.Quantile(0.99)
	if p50 < 33 || p50 > 64 {
		t.Fatalf("p50 = %d, want within bucket [33,64]", p50)
	}
	if p99 < p50 || p99 > 127 {
		t.Fatalf("p99 = %d (p50 %d)", p99, p50)
	}
	if min := s.Quantile(0); min != 1 {
		t.Fatalf("p0 = %d, want 1", min)
	}
}

func TestHistSnapshotMergeIsCommutative(t *testing.T) {
	var a, b Histogram
	for _, v := range []uint64{1, 2, 3, 100} {
		a.Observe(v)
	}
	for _, v := range []uint64{0, 7, 4096} {
		b.Observe(v)
	}
	ab := a.Snapshot()
	ab.Merge(b.Snapshot())
	ba := b.Snapshot()
	ba.Merge(a.Snapshot())
	if ab != ba {
		t.Fatalf("merge not commutative:\n%+v\n%+v", ab, ba)
	}
	if ab.Count != 7 || ab.Sum != 4209 {
		t.Fatalf("merged count/sum = %d/%d", ab.Count, ab.Sum)
	}
}

func TestHistogramConcurrentObserveIsExact(t *testing.T) {
	m := NewObserver()
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := m.Histogram(HistForwardWork, 1, 11)
			for i := 0; i < per; i++ {
				h.Observe(uint64(i % 16))
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot().Hist(HistForwardWork, 1, 11)
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
}

func TestHistTotalsMergesScopes(t *testing.T) {
	m := NewObserver()
	m.Histogram(HistJoinGraft, 1, 11).Observe(100)
	m.Histogram(HistJoinGraft, 2, 21).Observe(300)
	totals := m.Snapshot().HistTotals()
	s := totals[HistJoinGraft.String()]
	if s.Count != 2 || s.Sum != 400 {
		t.Fatalf("totals = %+v", s)
	}
}

func TestPrometheusExpositionIsDeterministic(t *testing.T) {
	build := func() string {
		m := NewObserver()
		m.Counter(BGMPJoin, 1, 11).Add(3)
		m.Counter(BGMPJoin, 2, 21).Add(1)
		m.Histogram(HistDetect, 0, 0).Observe(5_000_000_000)
		m.Histogram(HistDetect, 0, 0).Observe(25_000_000_000)
		return m.Snapshot().Prometheus()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("exposition differs:\n%s\nvs\n%s", a, b)
	}
	for _, want := range []string{
		"# TYPE bgmp_join_total counter",
		`bgmp_join_total{domain="1",router="11"} 3`,
		"# TYPE detect_ns histogram",
		`detect_ns_bucket{le="+Inf"} 2`,
		"detect_ns_sum 30000000000",
		"detect_ns_count 2",
	} {
		if !strings.Contains(a, want) {
			t.Fatalf("exposition missing %q:\n%s", want, a)
		}
	}
	// Cumulative bucket counts must be nondecreasing.
	cum := uint64(0)
	for _, line := range strings.Split(a, "\n") {
		if !strings.HasPrefix(line, "detect_ns_bucket") {
			continue
		}
		v, err := strconv.ParseUint(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < cum {
			t.Fatalf("bucket counts decreased at %q", line)
		}
		cum = v
	}
}
