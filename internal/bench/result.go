package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"mascbgmp/internal/obs"
)

// SchemaID identifies the result-file format; bump on breaking changes.
const SchemaID = "mascbgmp-bench/v1"

// Percentiles summarizes a per-trial series.
type Percentiles struct {
	Min float64 `json:"min"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	Max float64 `json:"max"`
}

// MetricSummary is one metric aggregated over all trials. Series keeps
// the raw per-trial values in trial order so a baseline file carries
// enough information to re-derive any statistic later.
type MetricSummary struct {
	Name        string      `json:"name"`
	Unit        string      `json:"unit,omitempty"`
	Better      Direction   `json:"better"`
	Help        string      `json:"help,omitempty"`
	Mean        float64     `json:"mean"`
	Percentiles Percentiles `json:"percentiles"`
	Series      []float64   `json:"series"`
}

// HistogramSummary is one obs histogram merged across all trials: exact
// count/sum plus bucket-interpolated percentiles. Deterministic — the
// merge is commutative addition, so worker scheduling cannot change it.
type HistogramSummary struct {
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	Mean  uint64 `json:"mean"`
	P50   uint64 `json:"p50"`
	P95   uint64 `json:"p95"`
	P99   uint64 `json:"p99"`
}

// Env records where and how the suite ran. Volatile: stripped before
// determinism comparison.
type Env struct {
	GoVersion string `json:"go_version,omitempty"`
	OS        string `json:"os,omitempty"`
	Arch      string `json:"arch,omitempty"`
	// Revision is the VCS revision from the build info, when the binary
	// was built from a checkout (absent under plain `go run` of a dirty
	// tree — callers must tolerate the empty string).
	Revision string `json:"revision,omitempty"`
	Parallel int    `json:"parallel,omitempty"`
	Started  string `json:"started,omitempty"`
}

// Timing holds everything wall-clock- or allocator-derived. Volatile:
// stripped before determinism comparison.
type Timing struct {
	TotalWallNS int64       `json:"total_wall_ns,omitempty"`
	Wall        Percentiles `json:"wall_ns,omitempty"`
	AllocBytes  Percentiles `json:"alloc_bytes,omitempty"`
	PeakHeap    Percentiles `json:"peak_heap_bytes,omitempty"`
	// Rates maps "<name>_per_sec" to the mean per-trial rate for every
	// rate counter the suite reports (e.g. joins_per_sec).
	Rates map[string]float64 `json:"rates,omitempty"`
}

// SuiteResult is the machine-readable outcome of one suite run — the
// contents of a BENCH_<suite>.json file.
type SuiteResult struct {
	Schema      string            `json:"schema"`
	Suite       string            `json:"suite"`
	Description string            `json:"description,omitempty"`
	Trials      int               `json:"trials"`
	Seed        int64             `json:"seed"`
	Metrics     []MetricSummary   `json:"metrics"`
	Counters    map[string]uint64 `json:"counters,omitempty"`
	// Histograms carries the obs latency/work distributions the trials
	// recorded (join→graft, detect→reroute, forwarding fan-out, …),
	// merged across trials. Deterministic: part of the determinism view.
	Histograms map[string]HistogramSummary `json:"histograms,omitempty"`
	// Spans holds the causal spans recorded when Options.Trace is set,
	// concatenated in trial order. Not serialized into the JSON baseline
	// — cmd/benchsuite renders them separately via -trace-out.
	Spans  []obs.SpanRecord `json:"-"`
	Env    Env              `json:"env"`
	Timing Timing           `json:"timing"`
}

// summarize computes mean and percentiles over a non-empty series.
func summarize(series []float64) (float64, Percentiles) {
	sorted := append([]float64(nil), series...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	pct := func(p float64) float64 {
		// Nearest-rank on the sorted series.
		i := int(math.Round(p / 100 * float64(len(sorted)-1)))
		return sorted[i]
	}
	return sum / float64(len(sorted)), Percentiles{
		Min: sorted[0],
		P50: pct(50),
		P90: pct(90),
		P99: pct(99),
		Max: sorted[len(sorted)-1],
	}
}

// Validate checks the structural invariants of a result: schema tag,
// suite name, positive trial count, and per-metric series of the right
// length with ordered percentiles.
func (r SuiteResult) Validate() error {
	if r.Schema != SchemaID {
		return fmt.Errorf("bench: schema %q, want %q", r.Schema, SchemaID)
	}
	if r.Suite == "" {
		return fmt.Errorf("bench: empty suite name")
	}
	if r.Trials <= 0 {
		return fmt.Errorf("bench: trials = %d", r.Trials)
	}
	if len(r.Metrics) == 0 {
		return fmt.Errorf("bench: no metrics")
	}
	for _, m := range r.Metrics {
		if m.Name == "" {
			return fmt.Errorf("bench: unnamed metric")
		}
		switch m.Better {
		case Lower, Higher, Info:
		default:
			return fmt.Errorf("bench: metric %s: bad direction %q", m.Name, m.Better)
		}
		if len(m.Series) != r.Trials {
			return fmt.Errorf("bench: metric %s: %d series points for %d trials",
				m.Name, len(m.Series), r.Trials)
		}
		p := m.Percentiles
		if !(p.Min <= p.P50 && p.P50 <= p.P90 && p.P90 <= p.P99 && p.P99 <= p.Max) {
			return fmt.Errorf("bench: metric %s: percentiles out of order: %+v", m.Name, p)
		}
	}
	return nil
}

// StripVolatile returns a copy with the Env and Timing sections zeroed —
// the determinism view of a result: everything left must be a pure
// function of (suite, trials, seed).
func StripVolatile(r SuiteResult) SuiteResult {
	r.Env = Env{}
	r.Timing = Timing{}
	return r
}

// DeterministicDiff compares two results modulo their volatile sections
// and returns "" when identical, or a human-readable description of the
// first difference.
func DeterministicDiff(a, b SuiteResult) string {
	ja, err := json.Marshal(StripVolatile(a))
	if err != nil {
		return "marshal a: " + err.Error()
	}
	jb, err := json.Marshal(StripVolatile(b))
	if err != nil {
		return "marshal b: " + err.Error()
	}
	if string(ja) == string(jb) {
		return ""
	}
	// Localize the divergence for the error message.
	if a.Suite != b.Suite {
		return fmt.Sprintf("suite %q vs %q", a.Suite, b.Suite)
	}
	if a.Trials != b.Trials || a.Seed != b.Seed {
		return fmt.Sprintf("trials/seed (%d,%d) vs (%d,%d)", a.Trials, a.Seed, b.Trials, b.Seed)
	}
	for i := range a.Metrics {
		if i >= len(b.Metrics) {
			break
		}
		ma, mb := a.Metrics[i], b.Metrics[i]
		if ma.Name != mb.Name || ma.Mean != mb.Mean || fmt.Sprint(ma.Series) != fmt.Sprint(mb.Series) {
			return fmt.Sprintf("metric %s: %v vs %v", ma.Name, ma.Series, mb.Series)
		}
	}
	for k, va := range a.Counters {
		if vb := b.Counters[k]; va != vb {
			return fmt.Sprintf("counter %s: %d vs %d", k, va, vb)
		}
	}
	for k, va := range a.Histograms {
		if vb := b.Histograms[k]; va != vb {
			return fmt.Sprintf("histogram %s: %+v vs %+v", k, va, vb)
		}
	}
	return "results differ (structure)"
}

// PrometheusText renders the deterministic sections — counter sums and
// merged histograms — in Prometheus text exposition format: counters as
// `_total` counters, histograms as summaries with p50/p95/p99 quantile
// lines. Names are obs names, dotted: '.' becomes '_' as in
// obs.Snapshot.Prometheus. Sorted, so equal results render to identical
// bytes.
func (r SuiteResult) PrometheusText() string {
	promName := strings.NewReplacer(".", "_").Replace
	var b strings.Builder
	names := make([]string, 0, len(r.Counters))
	for k := range r.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		n := promName(k) + "_total"
		fmt.Fprintf(&b, "# TYPE %s counter\n%s %d\n", n, n, r.Counters[k])
	}
	names = names[:0]
	for k := range r.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h := r.Histograms[k]
		n := promName(k)
		fmt.Fprintf(&b, "# TYPE %s summary\n", n)
		fmt.Fprintf(&b, "%s{quantile=\"0.5\"} %d\n", n, h.P50)
		fmt.Fprintf(&b, "%s{quantile=\"0.95\"} %d\n", n, h.P95)
		fmt.Fprintf(&b, "%s{quantile=\"0.99\"} %d\n", n, h.P99)
		fmt.Fprintf(&b, "%s_sum %d\n", n, h.Sum)
		fmt.Fprintf(&b, "%s_count %d\n", n, h.Count)
	}
	return b.String()
}

// Regression is one metric that moved the wrong way past the tolerance.
type Regression struct {
	Metric   string
	Baseline float64
	Current  float64
	// Delta is the signed relative change, positive = grew.
	Delta float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %.4g -> %.4g (%+.1f%%)", r.Metric, r.Baseline, r.Current, r.Delta*100)
}

// Compare gates current against baseline: every directional metric of the
// baseline (Better == Lower or Higher) must be present in current — a
// gated metric that disappeared is an error, not a pass — and must not
// move the wrong way by more than tolerance (relative, e.g. 0.10 = 10%).
// Info metrics are ignored. Returns the regressions found.
func Compare(baseline, current SuiteResult, tolerance float64) ([]Regression, error) {
	if baseline.Suite != current.Suite {
		return nil, fmt.Errorf("bench: comparing suite %q against baseline %q",
			current.Suite, baseline.Suite)
	}
	cur := make(map[string]MetricSummary, len(current.Metrics))
	for _, m := range current.Metrics {
		cur[m.Name] = m
	}
	var regs []Regression
	for _, b := range baseline.Metrics {
		if b.Better == Info {
			continue
		}
		m, ok := cur[b.Name]
		if !ok {
			return nil, fmt.Errorf("bench: gated metric %q is in the baseline but missing from the run", b.Name)
		}
		var bad bool
		switch b.Better {
		case Lower:
			bad = m.Mean > b.Mean*(1+tolerance)+1e-12
		case Higher:
			bad = m.Mean < b.Mean*(1-tolerance)-1e-12
		}
		if bad {
			delta := 0.0
			if b.Mean != 0 {
				delta = (m.Mean - b.Mean) / math.Abs(b.Mean)
			}
			regs = append(regs, Regression{Metric: m.Name, Baseline: b.Mean, Current: m.Mean, Delta: delta})
		}
	}
	return regs, nil
}

// WriteFile serializes a result as indented JSON (trailing newline, so
// the file is diff- and cat-friendly).
func WriteFile(path string, r SuiteResult) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads and validates a result file.
func ReadFile(path string) (SuiteResult, error) {
	var r SuiteResult
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("bench: %s: %w", path, err)
	}
	if err := r.Validate(); err != nil {
		return r, fmt.Errorf("bench: %s: %w", path, err)
	}
	return r, nil
}
