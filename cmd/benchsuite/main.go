// Command benchsuite runs the benchmark suites through the parallel
// deterministic trial runner and writes machine-readable results
// (schema mascbgmp-bench/v1) suitable for checking in as BENCH_<suite>.json
// baselines. The Metrics and Counters sections of a result are pure
// functions of (suite, trials, seed) — byte-identical at any -parallel —
// while the env and timing sections carry the host-dependent figures.
// Expected bands are recorded in EXPERIMENTS.md.
//
// Usage:
//
//	benchsuite -list
//	benchsuite -suite scale-churn [-trials 3] [-parallel 0] [-seed 1998]
//	           [-backend shared-tree|bier|map-encap]
//	           [-out BENCH_scale.json] [-compare old.json] [-tolerance 0.10]
//	           [-trace-out spans.json] [-metrics-out metrics.prom]
//	benchsuite -scenario scenarios/diurnal.toml [-trials ...] [-out ...]
//	benchsuite -validate BENCH_scale.json
//	benchsuite -diff a.json b.json
//
// -scenario loads a declarative scenario file (see DESIGN.md §14 and the
// scenarios/ directory) as one more suite beside the built-ins for this
// invocation: it becomes the default -suite, and -list includes it. An
// unparseable file, or one named like a built-in, exits with status 2 and
// the file:line position.
//
// -trace-out attaches a deterministic tracer to every trial's observer
// and writes the recorded causal spans (trial order) as Chrome
// trace-event JSON. -metrics-out writes the deterministic counter and
// histogram totals in Prometheus text exposition format. Both files are
// byte-identical for the same (suite, trials, seed) at -parallel 1;
// histogram and counter sections stay identical at any parallelism.
//
// -backend runs a suite under a specific forwarding data plane; the
// scale-churn and chaos-recovery suites honor it (dataplane-compare
// always costs all three backends side by side). Unknown backend names
// exit with status 2.
//
// -compare gates the fresh run against a baseline file: any directional
// metric moving the wrong way by more than -tolerance (relative) is a
// regression. -diff compares two result files for determinism (strict
// equality ignoring the env and timing sections). -validate checks a
// file against the schema.
//
// Exit status:
//
//	0  success (no regressions, files match, file valid)
//	1  benchmark outcome failure: -compare found a regression, or -diff
//	   found a deterministic mismatch
//	2  usage or runtime error (bad flags, unknown suite, write failure)
//	3  schema error: a result file is unreadable or fails validation
//
// Distinct codes let CI tell "the code got slower" (1) from "the
// baseline file is broken" (3) without parsing stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"mascbgmp"
	"mascbgmp/cmd/internal/obsflags"
	"mascbgmp/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Exit codes, documented in the command doc and -h output.
const (
	exitOutcome = 1 // regression found (-compare) or deterministic mismatch (-diff)
	exitUsage   = 2 // bad flags, unknown suite, or runtime failure
	exitSchema  = 3 // result file unreadable or schema-invalid
)

// run is main without the process: it parses args, writes to the given
// streams, and returns the exit code, so the tests can pin exit codes and
// output without a built binary.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		suite     = fs.String("suite", "", "suite to run (see -list)")
		scenFile  = fs.String("scenario", "", "scenario file (scenarios/*.toml) to load as a suite beside the built-ins; becomes the default -suite")
		trials    = fs.Int("trials", 0, "trials to run (0: the suite's default)")
		parallel  = fs.Int("parallel", 0, "worker pool size (0: GOMAXPROCS)")
		seed      = fs.Int64("seed", 1998, "suite seed; per-trial seeds derive from it")
		backend   = fs.String("backend", "", "forwarding data plane for suites that model one (shared-tree, bier, map-encap; empty: suite default)")
		out       = fs.String("out", "", "write the result JSON to this file (default: stdout)")
		compare   = fs.String("compare", "", "baseline result file to gate the run against")
		tolerance = fs.Float64("tolerance", 0.10, "relative regression tolerance for -compare")
		list      = fs.Bool("list", false, "list the suites and exit")
		validate  = fs.String("validate", "", "validate a result file against the schema and exit")
		diff      = fs.Bool("diff", false, "compare two result files (args) modulo env/timing and exit")
		of        obsflags.Flags
	)
	of.Register(fs, "trace-out", "metrics-out")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: benchsuite [flags]\n\n"+
			"Exit status: 0 success; 1 regression (-compare) or mismatch (-diff);\n"+
			"2 usage or runtime error; 3 unreadable or invalid result file.\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	fail := func(code int, msg string) int {
		fmt.Fprintln(stderr, "benchsuite: "+msg)
		return code
	}

	// Load the scenario file first: it joins this invocation's suite list,
	// so -list shows it and -suite can name it. An unparseable file is a
	// usage error (exit 2) carrying the parse error's file:line position.
	suites := bench.Suites()
	if *scenFile != "" {
		loaded, err := bench.LoadScenarioFile(*scenFile)
		if err != nil {
			return fail(exitUsage, err.Error())
		}
		suites = append(suites, loaded)
		if *suite == "" {
			*suite = loaded.Name
		}
	}

	switch {
	case *list:
		for _, s := range suites {
			fmt.Fprintf(stdout, "%-16s trials=%d  %s\n", s.Name, s.DefaultTrials, s.Description)
			for _, m := range s.Metrics {
				fmt.Fprintf(stdout, "    %-20s %-10s better=%-6s %s\n", m.Name, m.Unit, m.Better, m.Help)
			}
		}
		return 0

	case *validate != "":
		if _, err := bench.ReadFile(*validate); err != nil {
			return fail(exitSchema, err.Error())
		}
		fmt.Fprintf(stdout, "%s: valid (%s)\n", *validate, bench.SchemaID)
		return 0

	case *diff:
		if fs.NArg() != 2 {
			return fail(exitUsage, "-diff needs exactly two result files")
		}
		a, err := bench.ReadFile(fs.Arg(0))
		if err != nil {
			return fail(exitSchema, err.Error())
		}
		b, err := bench.ReadFile(fs.Arg(1))
		if err != nil {
			return fail(exitSchema, err.Error())
		}
		if d := bench.DeterministicDiff(a, b); d != "" {
			return fail(exitOutcome, "results differ: "+d)
		}
		fmt.Fprintln(stdout, "results match (modulo env/timing)")
		return 0
	}

	if *suite == "" {
		fmt.Fprintln(stderr, "benchsuite: -suite or -scenario required (or -list/-validate/-diff)")
		fs.Usage()
		return exitUsage
	}
	if *backend != "" && !mascbgmp.ValidDataPlane(*backend) {
		return fail(exitUsage, fmt.Sprintf("unknown -backend %q (valid: %s)",
			*backend, strings.Join(mascbgmp.DataPlaneNames(), ", ")))
	}

	i := slices.IndexFunc(suites, func(s bench.Suite) bool { return s.Name == *suite })
	if i < 0 {
		return fail(exitUsage, fmt.Sprintf("unknown suite %q (try -list)", *suite))
	}
	res, err := bench.RunSuite(suites[i], bench.Options{
		Trials: *trials, Parallel: *parallel, Seed: *seed, Backend: *backend,
		Trace: of.TraceOut != "",
	})
	if err != nil {
		return fail(exitUsage, err.Error())
	}

	if err := of.Finish(stderr, "", res.PrometheusText(), res.Spans); err != nil {
		return fail(exitUsage, err.Error())
	}

	if *out != "" {
		if err := bench.WriteFile(*out, res); err != nil {
			return fail(exitUsage, err.Error())
		}
		fmt.Fprintf(stderr, "benchsuite: wrote %s\n", *out)
	} else {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return fail(exitUsage, err.Error())
		}
		fmt.Fprintln(stdout, string(data))
	}

	if *compare != "" {
		base, err := bench.ReadFile(*compare)
		if err != nil {
			return fail(exitSchema, err.Error())
		}
		regs, err := bench.Compare(base, res, *tolerance)
		if err != nil {
			return fail(exitSchema, err.Error())
		}
		if len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintf(stderr, "benchsuite: REGRESSION %s\n", r)
			}
			return exitOutcome
		}
		fmt.Fprintf(stderr, "benchsuite: no regressions vs %s (tolerance %.0f%%)\n",
			*compare, *tolerance*100)
	}
	return 0
}
