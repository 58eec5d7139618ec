package bench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"mascbgmp/internal/dataplane"
	"mascbgmp/internal/harness"
	"mascbgmp/internal/obs"
)

// Options parameterize a suite run.
type Options struct {
	// Trials overrides the suite's DefaultTrials when positive.
	Trials int
	// Parallel bounds the worker pool; <= 0 uses GOMAXPROCS.
	Parallel int
	// Seed is the suite seed every trial's seed derives from.
	Seed int64
	// Backend selects the data-plane backend for suites that model
	// forwarding (scale-churn, chaos-recovery). Empty keeps each
	// suite's default; otherwise it must be one of dataplane.Names().
	Backend string
	// Trace attaches a deterministic tracer (seeded from the trial seed)
	// to every trial's observer; recorded spans concatenate in trial
	// order into SuiteResult.Spans. Suites that drive traced subsystems
	// (network builds, allocator claims) produce span trees; others
	// produce none.
	Trace bool
}

// RunSuite runs a suite through the harness and aggregates the trials
// into a SuiteResult. The Metrics and Counters sections are pure
// functions of (suite, trials, seed); Env and Timing carry everything
// host- or wall-clock-dependent.
func RunSuite(s Suite, opts Options) (SuiteResult, error) {
	if opts.Backend != "" && !dataplane.ValidName(opts.Backend) {
		return SuiteResult{}, fmt.Errorf("bench: unknown backend %q (valid: %s)",
			opts.Backend, strings.Join(dataplane.Names(), ", "))
	}
	trials := opts.Trials
	if trials <= 0 {
		trials = s.DefaultTrials
	}
	if trials <= 0 {
		trials = 1
	}

	type trialRecord struct {
		out   TrialOutput
		obs   map[string]uint64
		hists map[string]obs.HistSnapshot
		spans []obs.SpanRecord
	}
	start := time.Now()
	results, err := harness.Run(trials, opts.Parallel, opts.Seed, func(index int, seed int64) (trialRecord, error) {
		ob := obs.NewObserver()
		var tr *obs.Tracer
		if opts.Trace {
			tr = obs.NewTracer(seed)
			ob.SetTracer(tr)
		}
		out, err := s.Trial(TrialContext{Index: index, Seed: seed, Obs: ob, Backend: opts.Backend})
		if err != nil {
			return trialRecord{}, err
		}
		for _, m := range s.Metrics {
			if _, ok := out.Values[m.Name]; !ok {
				return trialRecord{}, fmt.Errorf("trial output missing metric %q", m.Name)
			}
		}
		snap := ob.Snapshot()
		return trialRecord{out: out, obs: snap.NameTotals(), hists: snap.HistTotals(),
			spans: tr.Records()}, nil
	})
	if err != nil {
		return SuiteResult{}, fmt.Errorf("bench: suite %s: %w", s.Name, err)
	}
	totalWall := time.Since(start)

	res := SuiteResult{
		Schema:      SchemaID,
		Suite:       s.Name,
		Description: s.Description,
		Trials:      trials,
		Seed:        opts.Seed,
		Counters:    map[string]uint64{},
		Env:         captureEnv(opts.Parallel, start),
	}

	// Deterministic sections: metric series in trial order, counter sums.
	for _, def := range s.Metrics {
		series := make([]float64, trials)
		for i, r := range results {
			series[i] = r.Value.out.Values[def.Name]
		}
		mean, pct := summarize(series)
		res.Metrics = append(res.Metrics, MetricSummary{
			Name: def.Name, Unit: def.Unit, Better: def.Better, Help: def.Help,
			Mean: mean, Percentiles: pct, Series: series,
		})
	}
	for _, r := range results {
		for k, v := range r.Value.obs {
			res.Counters[k] += v
		}
	}
	if len(res.Counters) == 0 {
		res.Counters = nil
	}
	// Histograms merge by bucket addition (commutative), so the summary is
	// identical at any parallelism, like the counters above.
	merged := map[string]obs.HistSnapshot{}
	for _, r := range results {
		for name, h := range r.Value.hists {
			m := merged[name]
			m.Merge(h)
			merged[name] = m
		}
	}
	if len(merged) > 0 {
		res.Histograms = make(map[string]HistogramSummary, len(merged))
		for name, h := range merged {
			res.Histograms[name] = HistogramSummary{
				Count: h.Count, Sum: h.Sum, Mean: h.Mean(),
				P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
			}
		}
	}
	for _, r := range results {
		res.Spans = append(res.Spans, r.Value.spans...)
	}

	// Volatile sections: wall/alloc/heap percentiles and mean rates.
	walls := make([]float64, trials)
	allocs := make([]float64, trials)
	heaps := make([]float64, trials)
	rateSums := map[string]float64{}
	for i, r := range results {
		walls[i] = float64(r.Wall)
		allocs[i] = float64(r.AllocBytes)
		heaps[i] = float64(r.PeakHeapBytes)
		secs := r.Wall.Seconds()
		if secs <= 0 {
			continue
		}
		for k, count := range r.Value.out.Rates {
			rateSums[k] += count / secs
		}
	}
	res.Timing.TotalWallNS = totalWall.Nanoseconds()
	_, res.Timing.Wall = summarize(walls)
	_, res.Timing.AllocBytes = summarize(allocs)
	_, res.Timing.PeakHeap = summarize(heaps)
	if len(rateSums) > 0 {
		res.Timing.Rates = make(map[string]float64, len(rateSums))
		for k, sum := range rateSums {
			res.Timing.Rates[k+"_per_sec"] = sum / float64(trials)
		}
	}
	return res, nil
}

// captureEnv snapshots the host metadata. The VCS revision comes from
// the build info and is best-effort: absent under `go run` of a dirty
// tree or a non-VCS build.
func captureEnv(parallel int, started time.Time) Env {
	env := Env{
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		Parallel:  parallel,
		Started:   started.UTC().Format(time.RFC3339),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				env.Revision = kv.Value
			}
		}
	}
	return env
}
