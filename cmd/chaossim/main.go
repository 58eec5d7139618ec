// Command chaossim measures protocol recovery under injected failure: a
// three-domain internetwork with a redundant path runs with session
// supervision (hold timers, exponential-backoff reconnect) while the fault
// plane drops data and keepalives at a swept loss rate and crashes the
// direct-path border router. For each loss rate it reports the delivery
// ratio during the lossy steady state, the sim-time to detect the crash
// (first SessionDown for the victim), the sim-time to reroute onto the
// surviving path, and the sim-time to reconverge onto the direct path
// after the restart. Expected bands are recorded in EXPERIMENTS.md.
//
// The sweep is fully deterministic: a fixed -seed yields byte-identical
// event snapshots (-metrics) across runs.
//
// Usage:
//
//	chaossim [-seed 1998] [-loss 0,0.05,0.1,0.2] [-hold 30s] [-backoff 15s]
//	         [-crash 5m] [-groups 3] [-packets 50]
//	         [-backend shared-tree|bier|map-encap] [-liveness]
//	         [-liveness-floor 100ms] [-liveness-mult 3] [-metrics] [-trace]
//	         [-trace-out spans.json] [-metrics-out metrics.prom]
//
// -trace-out arms the causal trace plane: every point records its
// detect→failover→reroute chain as a span tree (trace IDs from the
// deterministic seed stream, timestamps from the sim clock) and the file
// gets Chrome trace-event JSON — load it in chrome://tracing or Perfetto.
// Same seed, byte-identical file. -metrics-out writes the final counter
// and histogram state in Prometheus text exposition format, also sorted
// and byte-deterministic.
//
// -liveness arms the BFD-style fast detector on every supervised session:
// probe intervals ramp from hold/3 down to -liveness-floor, detection
// fires after -liveness-mult consecutive missed intervals, and stable
// sessions quiesce into demand mode (probing at 10× the floor) until a
// miss re-arms fast probing. Hold timers keep running as the fallback.
// Paired with BGMP's precomputed backup parents, detection — not repair —
// is the only latency left, so time-to-reroute drops by an order of
// magnitude; the recovery probes step at 250ms instead of 5s so that
// resolves.
//
// -backend selects the forwarding data plane the routers run under fault
// injection: the default BGMP shared trees repair tree state through the
// supervised sessions, while the stateless backends (bier, map-encap)
// recover by following the RIBs — the crashed router's iBGP siblings
// withdraw its routes immediately, so their reroute time can be zero.
// Unknown backend names exit with status 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"mascbgmp"
	"mascbgmp/cmd/internal/obsflags"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process: it parses args, writes the CSV to stdout
// and everything else to stderr, and returns the exit code (1 run failure,
// 2 usage or unwritable output file), so the tests can drive it in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaossim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Int64("seed", 1998, "random seed")
		loss     = fs.String("loss", "", "comma-separated loss rates in [0,1) (default: the recorded 0,0.05,0.1,0.2 sweep)")
		hold     = fs.Duration("hold", 30*time.Second, "session hold time (keepalives every third)")
		backoff  = fs.Duration("backoff", 15*time.Second, "initial reconnect backoff (doubles per failure)")
		crash    = fs.Duration("crash", 5*time.Minute, "how long the crashed border router stays down")
		groups   = fs.Int("groups", 3, "multicast groups rooted in the source domain")
		packets  = fs.Int("packets", 50, "probe packets per group during the lossy phase")
		backend  = fs.String("backend", mascbgmp.DataPlaneSharedTree, "forwarding data plane (shared-tree, bier, map-encap)")
		liveness = fs.Bool("liveness", false, "arm the BFD-style fast-liveness detector beside the hold timers")
		lvFloor  = fs.Duration("liveness-floor", 0, "liveness probe-interval floor (0: the 100ms default)")
		lvMult   = fs.Int("liveness-mult", 0, "missed intervals before liveness declares a session dead (0: the ×3 default)")
		of       obsflags.Flags
	)
	of.Register(fs, "metrics", "trace", "trace-out", "metrics-out")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if !mascbgmp.ValidDataPlane(*backend) {
		fmt.Fprintf(stderr, "chaossim: unknown -backend %q (valid: %s)\n",
			*backend, strings.Join(mascbgmp.DataPlaneNames(), ", "))
		return 2
	}

	cfg := mascbgmp.DefaultChaosConfig()
	cfg.Seed = *seed
	cfg.DataPlane = *backend
	cfg.HoldTime = *hold
	cfg.ReconnectBackoff = *backoff
	cfg.CrashFor = *crash
	cfg.Groups = *groups
	cfg.Packets = *packets
	cfg.Liveness = *liveness
	cfg.LivenessFloor = *lvFloor
	cfg.LivenessMultiplier = *lvMult
	if *loss != "" {
		cfg.LossRates = nil
		for _, f := range strings.Split(*loss, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || v < 0 || v >= 1 {
				fmt.Fprintf(stderr, "chaossim: bad -loss entry %q\n", f)
				return 2
			}
			cfg.LossRates = append(cfg.LossRates, v)
		}
	}

	// The observer is on whatever the flags say: the recovery-latency
	// summary below reads its histograms (RunChaos observes
	// detect/reroute/reconverge there). Spans come from RunChaos's own
	// per-point tracers, returned with the points.
	ob := of.Observer(*seed, stderr)
	if ob == nil {
		ob = mascbgmp.NewObserver()
	}
	cfg.Obs = ob
	cfg.Trace = of.TraceOut != ""

	pts, err := mascbgmp.RunChaos(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "chaossim: %v\n", err)
		return 1
	}

	fmt.Fprintln(stdout, "loss,delivery_ratio,detect_s,reroute_s,reconverge_s,session_downs,session_ups,recovered")
	for _, p := range pts {
		fmt.Fprintf(stdout, "%.2f,%.3f,%.2f,%.2f,%.2f,%d,%d,%t\n",
			p.Loss, p.DeliveryRatio, p.Detect.Seconds(), p.Reroute.Seconds(), p.Reconverge.Seconds(),
			p.SessionDowns, p.SessionUps, p.Recovered)
	}

	detector := "hold-timer"
	if *liveness {
		detector = "liveness"
	}
	fmt.Fprintf(stderr, "\n# recovery vs loss rate (hold %v, backoff %v, crash %v, detector %s)\n",
		*hold, *backoff, *crash, detector)
	for _, p := range pts {
		state := "recovered"
		if !p.Recovered {
			state = "DEGRADED"
		}
		fmt.Fprintf(stderr, "loss %4.0f%%: delivery %5.1f%%, detect %5.2fs, reroute %5.2fs after crash, reconverge %5.2fs after restart, %s\n",
			p.Loss*100, p.DeliveryRatio*100, p.Detect.Seconds(), p.Reroute.Seconds(), p.Reconverge.Seconds(), state)
	}

	// Recovery-latency distributions come from the obs histograms rather
	// than ad-hoc per-point aggregation: RunChaos observes every point's
	// detect/reroute/reconverge durations, so the percentiles here match
	// the histograms benchsuite serializes into BENCH_chaos.json.
	snap := ob.Snapshot()
	fmt.Fprintf(stderr, "\n# recovery latency distributions (histogram p50/p95/p99 over %d points)\n", len(pts))
	for _, name := range []mascbgmp.Hist{mascbgmp.HistDetect, mascbgmp.HistReroute, mascbgmp.HistReconverge} {
		h := snap.Hist(name, 0, 0) // RunChaos observes them unscoped
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(stderr, "%-14s n=%d p50=%.2fs p95=%.2fs p99=%.2fs\n", name, h.Count,
			float64(h.Quantile(0.50))/1e9, float64(h.Quantile(0.95))/1e9, float64(h.Quantile(0.99))/1e9)
	}

	var recs []mascbgmp.SpanRecord
	for _, p := range pts {
		recs = append(recs, p.Spans...)
	}
	if err := of.Finish(stderr, snap.Totals(), snap.Prometheus(), recs); err != nil {
		fmt.Fprintf(stderr, "chaossim: %v\n", err)
		return 2
	}
	return 0
}
