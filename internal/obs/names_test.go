package obs

import (
	"regexp"
	"strings"
	"testing"

	"mascbgmp/internal/wire"
)

// TestNameTablesExhaustive is the obs counterpart of
// wire.TestRegistryExhaustive: every Kind, SpanName and Hist below its
// sentinel has a unique dotted name in the alphabet Prometheus() can render
// by mapping '.' to '_' alone, and a value outside the table is not a name —
// Emit, Histogram and Begin ignore it. Adding a constant without its table
// row fails here.
func TestNameTablesExhaustive(t *testing.T) {
	alphabet := regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$`)
	check := func(what string, n int, str func(uint8) string) {
		t.Helper()
		seen := map[string]uint8{}
		for i := uint8(1); int(i) < n; i++ {
			s := str(i)
			if !alphabet.MatchString(s) {
				t.Errorf("%s %d is named %q: want a dotted lower-case name", what, i, s)
			}
			if prev, dup := seen[s]; dup {
				t.Errorf("%s %d and %d share the name %q", what, prev, i, s)
			}
			seen[s] = i
		}
		for _, i := range []uint8{0, uint8(n), 255} {
			if s := str(i); alphabet.MatchString(s) {
				t.Errorf("%s %d is outside the table and renders as the name %q", what, i, s)
			}
		}
	}
	check("kind", int(kindCount), func(i uint8) string { return Kind(i).String() })
	check("span", int(spanCount), func(i uint8) string { return SpanName(i).String() })
	check("hist", int(histCount), func(i uint8) string { return Hist(i).String() })

	// Every declared kind and histogram counts, and its exposition name is
	// the table's with '.' as '_'.
	o := NewObserver()
	tr := NewTracer(1)
	for k := Kind(1); k < kindCount; k++ {
		o.Emit(Event{Kind: k, Domain: 1})
	}
	for h := Hist(1); h < histCount; h++ {
		o.Histogram(h, 1, 0).Observe(1)
	}
	for n := SpanName(1); n < spanCount; n++ {
		tr.Begin(n, Event{Domain: 1}).End()
	}
	prom := o.Snapshot().Prometheus()
	for k := Kind(1); k < kindCount; k++ {
		want := strings.ReplaceAll(k.String(), ".", "_") + `_total{domain="1"} 1` + "\n"
		if !strings.Contains(prom, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	for h := Hist(1); h < histCount; h++ {
		want := strings.ReplaceAll(h.String(), ".", "_") + `_count{domain="1"} 1` + "\n"
		if !strings.Contains(prom, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
	if got := len(tr.Records()); got != int(spanCount)-1 {
		t.Errorf("%d spans recorded for %d declared names", got, spanCount-1)
	}

	// Nothing outside the tables counts, observes or begins.
	before := o.Snapshot().Prometheus()
	ctx := wire.TraceContext{Trace: 1, Span: 1}
	for _, i := range []uint8{0, uint8(kindCount), uint8(spanCount), uint8(histCount), 255} {
		if k := Kind(i); !k.valid() {
			o.Emit(Event{Kind: k, Domain: 1})
			o.Counter(k, 1, 0).Add(1)
		}
		if h := Hist(i); !h.valid() {
			o.Histogram(h, 1, 0).Observe(1)
		}
		if n := SpanName(i); !n.valid() {
			tr.Begin(n, Event{Domain: 1}).End()
			tr.BeginChild(ctx, n, Event{Domain: 1}).End()
		}
	}
	if after := o.Snapshot().Prometheus(); after != before {
		t.Errorf("an undeclared name reached the registry:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
	if got := len(tr.Records()); got != int(spanCount)-1 {
		t.Errorf("an undeclared span name was recorded: %d records", got)
	}
}
