// Command benchmark measures the real MASC/BGMP stack end to end and layer
// by layer. See README.md for the workloads, the metrics and how to read
// the output.
//
//	benchmark -workload tree-dense -seed 1 [-seconds 12] [-trace 1 [-trace-out f.json]]
//	benchmark -list
//	benchmark -workload tree-dense -selfcheck 5
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics — the end-to-end set without -trace, the
// per-layer set with it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"mascbgmp/internal/obs"
)

// metricDef names one reported metric. BENCHMARK.json lists the same names
// and units (a test holds the two together).
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"}, {"heap_mb", "MB"},
	{"join_us", "us"}, {"leave_us", "us"}, {"send_us", "us"}, {"send_large_us", "us"}, {"flap_ms", "ms"},
	{"send_allocs", "1/op"}, {"join_allocs", "1/op"},
}

var perLayerMetrics = []metricDef{
	{"wire.data64_codec_ns", "ns"}, {"wire.data1400_codec_ns", "ns"}, {"wire.join_codec_ns", "ns"},
	{"wire.update_codec_ns", "ns"}, {"wire.report_codec_ns", "ns"}, {"wire.data64_codec_allocs", "1/op"},
	{"transport.pipe_msg_ns", "ns"},
	{"bgp.lookup_ns", "ns"}, {"bgp.rpf_lookup_ns", "ns"}, {"bgp.update_ns", "ns"}, {"bgp.announces_per_flap", "1/op"},
	{"bgp.withdraws_per_flap", "1/op"}, {"bgp.best_changes_per_flap", "1/op"}, {"bgp.rib_entries", "count"},
	{"masc.claim_round_us", "us"}, {"maas.lease_ns", "ns"},
	{"migp.hostjoin_ns", "ns"}, {"migp.deliver_ns", "ns"},
	{"bgmp.join_ns", "ns"}, {"bgmp.prune_ns", "ns"}, {"bgmp.forward_ns", "ns"}, {"bgmp.joins_per_join", "1/op"},
	{"bgmp.prunes_per_leave", "1/op"}, {"bgmp.repairs_per_flap", "1/op"}, {"bgmp.entries", "count"},
	{"dataplane.shared_deliver_ns", "ns"}, {"dataplane.bier_deliver_ns", "ns"},
	{"dataplane.encap_deliver_ns", "ns"}, {"dataplane.report_ns", "ns"}, {"dataplane.forwards_per_send", "1/op"},
	{"dataplane.encaps_per_send", "1/op"}, {"dataplane.header_bytes_per_send", "B/op"},
	{"dataplane.overlay_entries", "count"},
	{"core.deliveries_per_send", "1/op"}, {"core.send_bytes", "B/op"}, {"core.flap_allocs", "1/op"},
	{"core.send_p99_us", "us"}, {"core.join_p99_us", "us"}, {"core.heap_growth_mb", "MB"},
	{"core.send_self_us", "us"}, {"core.join_self_us", "us"},
	{"obs.send_overhead_pct", "%"}, {"obs.join_overhead_pct", "%"},
}

// report is what one run produced.
type report struct {
	metrics     map[string]float64
	ops, failed [numClasses]int
	// problems lists verification failures; any makes the run incorrect.
	problems []string
	// text is the human-readable part beyond the metric list (the ledger).
	text string
}

func (rp *report) merge(r *runner) {
	for c := range r.ops {
		rp.ops[c] += r.ops[c]
		rp.failed[c] += r.failed[c]
	}
	rp.problems = append(rp.problems, r.problems...)
}

func (rp *report) correct() bool {
	for _, f := range rp.failed {
		if f > 0 {
			return false
		}
	}
	return len(rp.problems) == 0
}

// budget is how much measuring a run does. Op counts per round are fixed
// by the workload; the budget only decides how many rounds are replayed.
type budget struct {
	// seconds of timed rounds are run, but never fewer than minRounds (a
	// median needs them) nor more than maxRounds (a fast machine's cap).
	seconds              float64
	minRounds, maxRounds int
	// setups is how many times an untraced run sets up; setup_s is their
	// median.
	setups int
	// loopTarget is the least measured time of an isolated layer loop.
	loopTarget time.Duration
	// refWalks sizes the reference kernel; only refWalks itself yields
	// times at reference speed.
	refWalks int
}

func defaultBudget(seconds float64) budget {
	return budget{seconds: seconds, minRounds: 5, maxRounds: 15, setups: 3,
		loopTarget: 200 * time.Millisecond, refWalks: refWalks}
}

// more reports whether another timed round fits the budget.
func (b budget) more(done int, start time.Time) bool {
	return done < b.minRounds || (since(start).Seconds() < b.seconds && done < b.maxRounds)
}

// runPlain is the untraced run: every end-to-end metric, observer nil.
func runPlain(sp spec, seed int64, b budget) (*report, error) {
	w, err := newWorld(sp)
	if err != nil {
		return nil, err
	}
	sc := newScript(w, seed)

	// Set up several times. Like every other time, set-up is reported at
	// reference speed: divided by how slow the reference kernel ran beside
	// it (see ref.go).
	ref := newRefKernel(b.refWalks)
	base := heapMB() // the world, the script and the kernel, not the stack
	var st *stack
	var setups []float64
	for i := 0; i < b.setups; i++ {
		st = nil
		runtime.GC() // collects the previous stack
		ref.sample()
		t := now()
		if st, err = buildStack(w, nil); err != nil {
			return nil, err
		}
		setups = append(setups, since(t).Seconds())
	}
	heap := heapMB() - base
	ref.sample()

	r := &runner{st: st, sc: sc, ref: ref}
	r.round("warm-up", nil)
	var mem [numClasses]memDelta
	r.round("count", &mem)
	var rounds []pieces
	for start := now(); b.more(len(rounds), start); {
		rounds = append(rounds, r.round(fmt.Sprintf("round-%d", len(rounds)+1), nil))
	}
	slow := ref.slowdown()

	rp := &report{metrics: map[string]float64{}}
	if got := st.state(); got != st.baseline {
		rp.problems = append(rp.problems, fmt.Sprintf("final state %+v, baseline %+v", got, st.baseline))
	}
	rp.merge(r)
	med := typical(rounds, sc.opsPerRound())
	rp.metrics["setup_s"] = median(setups) / slow
	rp.metrics["heap_mb"] = heap
	rp.metrics["join_us"] = med[opJoin] / slow / 1e3
	rp.metrics["leave_us"] = med[opLeave] / slow / 1e3
	rp.metrics["send_us"] = med[opSend] / slow / 1e3
	rp.metrics["send_large_us"] = med[opSendLarge] / slow / 1e3
	rp.metrics["flap_ms"] = med[opFlap] / slow / 1e6
	rp.metrics["send_allocs"] = mem[opSend].mallocs
	rp.metrics["join_allocs"] = mem[opJoin].mallocs
	rp.text = fmt.Sprintf("reference kernel: %.3f times its quiet time; the times below are as measured, the metrics divided by it\n", slow) +
		fmt.Sprintf("set-ups: %.3f s\n", setups) +
		fmt.Sprintf("rounds: %d timed, after 1 warm-up and 1 count round\n", len(rounds)) +
		roundTable(rounds, sc.opsPerRound())
	return rp, nil
}

// roundTable prints each round's per-op times, so a reader can see how far
// the rounds behind a median lie apart.
func roundTable(rounds []pieces, ops [numClasses]int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-6s %9s %9s %9s %13s %9s\n", "round", "join_us", "leave_us", "send_us", "send_large_us", "flap_ms")
	for i, p := range rounds {
		r := p.perOp(ops)
		fmt.Fprintf(&b, "  %-6d %9.3f %9.3f %9.2f %13.2f %9.2f\n", i+1,
			r[opJoin]/1e3, r[opLeave]/1e3, r[opSend]/1e3, r[opSendLarge]/1e3, r[opFlap]/1e6)
	}
	return b.String()
}

// runTraced is the traced run: two stacks of the same world, one with an
// observer attached, replay the same script in alternating rounds. The
// observed stack supplies the counts, the plain one the baseline the
// observer's overhead is measured against; isolated loops supply the unit
// costs; the benchmark's own spans go to traceOut.
func runTraced(sp spec, seed int64, b budget, traceOut string) (*report, error) {
	tr := newTracer()
	endRun := tr.begin("run")
	w, err := newWorld(sp)
	if err != nil {
		return nil, err
	}
	sc := newScript(w, seed)

	endSetup := tr.begin("setup.plain")
	plain, err := buildStack(w, nil)
	endSetup()
	if err != nil {
		return nil, err
	}
	endSetup = tr.begin("setup.observed")
	observed, err := buildStack(w, obs.NewObserver())
	endSetup()
	if err != nil {
		return nil, err
	}
	heap := heapMB()

	// The plain stack only has to price send and churn.
	rpPlain := &runner{st: plain, sc: sc, tr: tr, only: &[numClasses]bool{opJoin: true, opLeave: true, opSend: true}}
	rObs := &runner{st: observed, sc: sc, tr: tr}
	rpPlain.round("warm-up.plain", nil)
	rObs.round("warm-up.observed", nil)
	var mem [numClasses]memDelta
	rObs.round("count.observed", &mem)
	var plainRounds, obsRounds []pieces
	// Per-layer numbers carry no bound, and the isolated loops need their
	// share of the run: half the budget and three rounds are enough here.
	b.seconds, b.minRounds = b.seconds/2, min(b.minRounds, 3)
	for start := now(); b.more(len(obsRounds), start); {
		i := len(obsRounds) + 1
		// The ledger and the overhead compare times taken side by side
		// in this run, so they need no reference kernel.
		plainRounds = append(plainRounds, rpPlain.round(fmt.Sprintf("round-%d.plain", i), nil))
		obsRounds = append(obsRounds, rObs.round(fmt.Sprintf("round-%d.observed", i), nil))
	}
	send99, join99 := rObs.tails()
	heapAfter := heapMB()

	rp := &report{metrics: map[string]float64{}}
	for _, st := range []*stack{plain, observed} {
		if got := st.state(); got != st.baseline {
			rp.problems = append(rp.problems, fmt.Sprintf("final state %+v, baseline %+v", got, st.baseline))
		}
	}
	rp.merge(rpPlain)
	rp.merge(rObs)

	in := inputsFrom(observed, sc)
	costs, err := layerCosts(tr, observed, in, b.loopTarget)
	if err != nil {
		rp.problems = append(rp.problems, "layer loops: "+err.Error())
	}
	m := rp.metrics
	for k, v := range costs {
		m[k] = v
	}

	// Counts: what the observer and the public statistics saw per op.
	per := func(c opClass, n uint64) float64 { return float64(n) / float64(rObs.ops[c]) }
	ev := func(c opClass, kind obs.Kind) float64 { return per(c, rObs.seen[c].events[kind.String()]) }
	m["bgp.announces_per_flap"] = ev(opFlap, obs.BGPAnnounce)
	m["bgp.withdraws_per_flap"] = ev(opFlap, obs.BGPWithdraw)
	m["bgp.best_changes_per_flap"] = ev(opFlap, obs.BGPBestChange)
	m["bgp.rib_entries"] = float64(observed.baseline.ribEntries)
	m["bgmp.joins_per_join"] = ev(opJoin, obs.BGMPJoin)
	m["bgmp.prunes_per_leave"] = ev(opJoin, obs.BGMPPrune) // the churn bracket covers both halves
	m["bgmp.repairs_per_flap"] = ev(opFlap, obs.BGMPRepair)
	m["bgmp.entries"] = float64(observed.baseline.bgmpEntries)
	m["dataplane.forwards_per_send"] = ev(opSend, obs.DataForwarded)
	encaps := per(opSend, rObs.seen[opSend].encaps)
	if encaps == 0 { // the shared tree keeps no encap statistic; its §5.3 encapsulations are events
		encaps = ev(opSend, obs.DataEncap)
	}
	m["dataplane.encaps_per_send"] = encaps
	m["dataplane.header_bytes_per_send"] = per(opSend, rObs.seen[opSend].headerBytes)
	m["dataplane.overlay_entries"] = float64(observed.baseline.overlayEntries)
	m["core.deliveries_per_send"] = ev(opSend, obs.DataDelivered)
	m["core.send_bytes"] = mem[opSend].bytes
	m["core.flap_allocs"] = mem[opFlap].mallocs
	m["core.send_p99_us"] = send99 / 1e3
	m["core.join_p99_us"] = join99 / 1e3
	m["core.heap_growth_mb"] = heapAfter - heap

	medPlain, medObs := typical(plainRounds, sc.opsPerRound()), typical(obsRounds, sc.opsPerRound())
	m["obs.send_overhead_pct"] = 100 * (medObs[opSend]/medPlain[opSend] - 1)
	m["obs.join_overhead_pct"] = 100 * (medObs[opJoin]/medPlain[opJoin] - 1)

	led := buildLedger(observed, sc, rObs, m, medObs)
	m["core.send_self_us"] = led.send.self / 1e3
	m["core.join_self_us"] = led.join.self / 1e3
	endRun()

	rp.text = fmt.Sprintf("rounds: %d plain and %d observed, alternating\n", len(plainRounds), len(obsRounds)) +
		fmt.Sprintf("untraced baseline: send %.2f us, join %.3f us; observed: send %.2f us, join %.3f us\n",
			medPlain[opSend]/1e3, medPlain[opJoin]/1e3, medObs[opSend]/1e3, medObs[opJoin]/1e3) +
		led.String()
	if traceOut != "" {
		if err := tr.writeFile(traceOut); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		rp.text += fmt.Sprintf("trace: %d spans written to %s\n", len(tr.spans), traceOut)
	}
	return rp, nil
}

// resultLine is the contract's last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (rp *report) resultLine(defs []metricDef) resultLine {
	out := resultLine{Correct: rp.correct(), Metrics: map[string]metricValue{}}
	for c := range rp.ops {
		out.Attempted += rp.ops[c]
		out.Failed += rp.failed[c]
	}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{rp.metrics[d.name], d.unit}
	}
	return out
}

func (rp *report) print(sp spec, seed int64, defs []metricDef) error {
	fmt.Printf("workload %s seed %d (%s)\n", sp.name, seed, sp.dataPlane)
	fmt.Print(rp.text)
	for _, d := range defs {
		fmt.Printf("  %-34s %14.4f %s\n", d.name, rp.metrics[d.name], d.unit)
	}
	for c, name := range classNames {
		fmt.Printf("  ops %-10s %9d failed %d\n", name, rp.ops[c], rp.failed[c])
	}
	for _, p := range rp.problems {
		fmt.Println("  FAILED:", p)
	}
	line, err := json.Marshal(rp.resultLine(defs))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run (see -list)")
	seed := fs.Int64("seed", 1, "seed of the op scripts")
	seconds := fs.Float64("seconds", 12, "time budget of the timed rounds (at least 5 rounds run regardless)")
	trace := fs.Int("trace", 0, "1: attach the observer, report the per-layer metrics, write a Chrome trace")
	traceOut := fs.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/trace-<workload>.json)")
	list := fs.Bool("list", false, "print the workload names and exit")
	selfcheck := fs.Int("selfcheck", 0, "run the workload K times twice in alternation and compare the two sets")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, s := range workloads {
			fmt.Printf("%-12s %s\n", s.name, s.why)
		}
		return 0
	}
	sp, ok := findWorkload(*workload)
	if !ok {
		names := make([]string, len(workloads))
		for i, s := range workloads {
			names[i] = s.name
		}
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *workload, strings.Join(names, ", "))
		return 2
	}
	if *selfcheck > 0 {
		if err := selfCheck(sp, *selfcheck, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	var rp *report
	var err error
	defs := endToEndMetrics
	if *trace != 0 {
		defs = perLayerMetrics
		if *traceOut == "" {
			*traceOut = ".bench_build/trace-" + sp.name + ".json"
		}
		rp, err = runTraced(sp, *seed, defaultBudget(*seconds), *traceOut)
	} else {
		rp, err = runPlain(sp, *seed, defaultBudget(*seconds))
	}
	if err == nil {
		err = rp.print(sp, *seed, defs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if !rp.correct() {
		return 1
	}
	return 0
}
