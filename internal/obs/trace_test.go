package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"mascbgmp/internal/wire"
)

// fakeClock is a hand-advanced time source for tracer tests.
type fakeClock struct {
	mu sync.Mutex
	ns int64
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Unix(0, c.ns)
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.ns += int64(d)
	c.mu.Unlock()
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.SetNow(func() time.Time { return time.Unix(0, 0) })
	if got := tr.Now(); got != 0 {
		t.Fatalf("nil.Now() = %d", got)
	}
	sp := tr.Begin(SpanRepair, Event{})
	if !sp.Context().Zero() {
		t.Fatalf("nil tracer Begin context = %+v, want zero", sp.Context())
	}
	sp.End()
	child := tr.BeginChild(sp.Context(), SpanJoinHop, Event{})
	child.End()
	if recs := tr.Records(); recs != nil {
		t.Fatalf("nil.Records() = %v", recs)
	}
}

func TestBeginChildOnZeroContextStopsPropagation(t *testing.T) {
	tr := NewTracer(1)
	sp := tr.BeginChild(wire.TraceContext{}, SpanJoinHop, Event{})
	if !sp.Context().Zero() {
		t.Fatalf("child of zero context got context %+v", sp.Context())
	}
	sp.End()
	if n := len(tr.Records()); n != 0 {
		t.Fatalf("zero-context child recorded %d spans", n)
	}
}

func TestTracerBuildsParentChildChain(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(1998)
	tr.SetNow(clk.Now)

	// Start off zero: a zero instant reads as "no clock", so root-start
	// propagation is only visible from a nonzero origin.
	clk.Advance(time.Second)
	root := tr.Begin(SpanMemberJoin, Event{Domain: 2, Router: 21})
	clk.Advance(5 * time.Millisecond)
	hop := tr.BeginChild(root.Context(), SpanJoinHop, Event{Domain: 1, Router: 13})
	clk.Advance(3 * time.Millisecond)
	hop.End()
	hop2 := tr.BeginChild(hop.Context(), SpanJoinHop, Event{Domain: 1, Router: 12})
	hop2.End()
	clk.Advance(time.Millisecond)
	root.End()

	recs := tr.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d spans, want 3", len(recs))
	}
	for _, r := range recs[1:] {
		if r.Trace != recs[0].Trace {
			t.Fatalf("spans landed in different traces: %+v vs %+v", recs[0], r)
		}
	}
	byName := map[string]SpanRecord{}
	for _, r := range recs {
		byName[r.Name.String()+string(rune('0'+r.Router%10))] = r
	}
	rootRec, hopRec, hop2Rec := byName["member.join1"], byName["bgmp.join.hop3"], byName["bgmp.join.hop2"]
	if rootRec.Parent != 0 {
		t.Fatalf("root has parent %d", rootRec.Parent)
	}
	if hopRec.Parent != rootRec.ID {
		t.Fatalf("hop parent = %d, want root %d", hopRec.Parent, rootRec.ID)
	}
	if hop2Rec.Parent != hopRec.ID {
		t.Fatalf("hop2 parent = %d, want hop %d", hop2Rec.Parent, hopRec.ID)
	}
	// Root start instant propagates through the chain's contexts.
	if hop.Context().Start != root.Context().Start {
		t.Fatalf("chain root start %d != %d", hop.Context().Start, root.Context().Start)
	}
	if rootRec.End-rootRec.Start != uint64(9*time.Millisecond) {
		t.Fatalf("root duration = %dns, want 9ms", rootRec.End-rootRec.Start)
	}
	if hopRec.End-hopRec.Start != uint64(3*time.Millisecond) {
		t.Fatalf("hop duration = %dns, want 3ms", hopRec.End-hopRec.Start)
	}
}

func TestTracerIDStreamIsDeterministic(t *testing.T) {
	emit := func() []SpanRecord {
		clk := &fakeClock{}
		tr := NewTracer(42)
		tr.SetNow(clk.Now)
		a := tr.Begin(SpanSessionDown, Event{Domain: 1, Router: 11})
		clk.Advance(time.Second)
		b := tr.BeginChild(a.Context(), SpanRepair, Event{Domain: 1, Router: 12})
		b.End()
		a.End()
		return tr.Records()
	}
	r1, r2 := emit(), emit()
	if len(r1) != len(r2) {
		t.Fatalf("lengths differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("span %d differs: %+v vs %+v", i, r1[i], r2[i])
		}
	}
	if !bytes.Equal(ChromeTrace(r1), ChromeTrace(r2)) {
		t.Fatal("ChromeTrace output differs between identical runs")
	}
}

func TestRenderTreeNestsChildren(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(7)
	tr.SetNow(clk.Now)
	root := tr.Begin(SpanSessionDown, Event{Domain: 1, Router: 11, Peer: 21})
	clk.Advance(250 * time.Millisecond)
	child := tr.BeginChild(root.Context(), SpanPeerDown, Event{Domain: 1, Router: 11})
	child.End()
	root.End()

	got := RenderTree(tr.Records())
	want := "session.down domain=1 router=11 peer=21 +0ms\n" +
		"  bgmp.peer_down domain=1 router=11 +250ms\n"
	if got != want {
		t.Fatalf("RenderTree:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestChromeTraceShape(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(3)
	tr.SetNow(clk.Now)
	clk.Advance(time.Hour) // nonzero base exercises the rebase
	sp := tr.Begin(SpanClaim, Event{Domain: 4})
	clk.Advance(1500 * time.Microsecond)
	sp.End()

	out := string(ChromeTrace(tr.Records()))
	for _, want := range []string{
		`"name":"masc.claim.round"`, `"ph":"X"`, `"pid":4`,
		`"ts":0.000`, `"dur":1500.000`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("ChromeTrace missing %s:\n%s", want, out)
		}
	}
}

func TestConcurrentSpanEmissionIsRaceFree(t *testing.T) {
	clk := &fakeClock{}
	tr := NewTracer(11)
	tr.SetNow(clk.Now)
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := tr.Begin(SpanJoinHop, Event{Domain: wire.DomainID(w + 1)})
				child := tr.BeginChild(sp.Context(), SpanJoinHop, Event{Domain: wire.DomainID(w + 1)})
				child.End()
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	recs := tr.Records()
	if len(recs) != workers*per*2 {
		t.Fatalf("got %d spans, want %d", len(recs), workers*per*2)
	}
	seen := map[uint64]bool{}
	for _, r := range recs {
		if seen[r.ID] {
			t.Fatalf("duplicate span ID %x", r.ID)
		}
		seen[r.ID] = true
	}
}
