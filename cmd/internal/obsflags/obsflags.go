// Package obsflags is the -metrics/-trace/-trace-out/-metrics-out plumbing
// mascsim, treesim, chaossim and benchsuite share: one registration, one
// observer construction, one epilogue.
package obsflags

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mascbgmp"
)

// Flags holds the observer options; a command registers the ones it has.
type Flags struct {
	Metrics    bool   // -metrics
	Trace      bool   // -trace
	TraceOut   string // -trace-out
	MetricsOut string // -metrics-out
}

// Register declares the named flags ("metrics", "trace", "trace-out",
// "metrics-out") on fs.
func (f *Flags) Register(fs *flag.FlagSet, names ...string) {
	for _, name := range names {
		switch name {
		case "metrics":
			fs.BoolVar(&f.Metrics, name, false, "dump protocol event counters to stderr at exit")
		case "trace":
			fs.BoolVar(&f.Trace, name, false, "print every protocol event to stderr as it happens")
		case "trace-out":
			fs.StringVar(&f.TraceOut, name, "", "record causal spans and write Chrome trace-event JSON to this file")
		case "metrics-out":
			fs.StringVar(&f.MetricsOut, name, "", "write counters and histograms to this file in Prometheus text exposition format")
		default:
			panic("obsflags: no flag -" + name)
		}
	}
}

// Observer returns the observer the flags call for: nil when none is set
// (an unobserved run pays nothing), else a fresh one that prints every
// event to stderr under -trace and carries a tracer seeded from seed under
// -trace-out.
func (f *Flags) Observer(seed int64, stderr io.Writer) *mascbgmp.Observer {
	if !f.Metrics && !f.Trace && f.TraceOut == "" && f.MetricsOut == "" {
		return nil
	}
	ob := mascbgmp.NewObserver()
	if f.Trace {
		ob.Subscribe(func(e mascbgmp.Event) { fmt.Fprintln(stderr, e) })
	}
	if f.TraceOut != "" {
		ob.SetTracer(mascbgmp.NewTracer(seed))
	}
	return ob
}

// Finish delivers what the flags asked for once the run is over: the
// counter totals to stderr (-metrics), the exposition text to -metrics-out
// and the spans, as Chrome trace-event JSON, to -trace-out. All three are
// sorted renderings, byte-identical for a given seed.
func (f *Flags) Finish(stderr io.Writer, totals, exposition string, spans []mascbgmp.SpanRecord) error {
	if f.Metrics {
		fmt.Fprintf(stderr, "\n# protocol event counters\n%s", totals)
	}
	if f.MetricsOut != "" {
		if err := os.WriteFile(f.MetricsOut, []byte(exposition), 0o644); err != nil {
			return err
		}
	}
	if f.TraceOut != "" {
		return os.WriteFile(f.TraceOut, mascbgmp.ChromeTrace(spans), 0o644)
	}
	return nil
}
