package core

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"mascbgmp/internal/obs"
	"mascbgmp/internal/wire"
)

// TestGoldenJoinSpanTree pins the causal span tree of one member join on
// the paper's Fig 1 internetwork: H (domain 8) joins a group rooted in B
// (domain 2), and the join propagates hop by hop H1 → G2 → C2 → A2 → A3 →
// B1 toward the root. The rendered tree is a golden: if join propagation
// or trace stamping changes shape, this fails with a readable diff.
func TestGoldenJoinSpanTree(t *testing.T) {
	ob := obs.NewObserver()
	tr := obs.NewTracer(1998)
	ob.SetTracer(tr)
	n, clk := paperNetDP(t, false, false, "", ob)

	allocateSpaces(t, n, clk)
	lease, err := n.Domain(2).NewGroup(24 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	g := lease.Addr

	// One member joins in H; the join must travel the whole Fig 1 spine.
	n.Domain(8).Join(g, 1)

	// Isolate the join's trace: find H's member.join root, then keep only
	// spans in its causal chain.
	var trace uint64
	for _, r := range tr.Records() {
		if r.Name == obs.SpanMemberJoin && r.Domain == 8 {
			trace = r.Trace
			break
		}
	}
	if trace == 0 {
		t.Fatal("no member.join span for domain 8")
	}
	var joinSpans []obs.SpanRecord
	for _, r := range tr.Records() {
		if r.Trace == trace {
			joinSpans = append(joinSpans, r)
		}
	}

	// The join walks the Fig 1 spine toward the root domain B:
	// H1 → G2 → G1 → C2 → C1 → A2 → A3 → B1, each hop a child span of
	// the hop that sent it the join.
	g8 := groupLabel(t, joinSpans)
	got := obs.RenderTree(joinSpans)
	want := strings.Join([]string{
		"member.join domain=8 router=81 group=" + g8 + " +0ms",
		"  bgmp.join.hop domain=7 router=72 peer=81 group=" + g8 + " +0ms",
		"    bgmp.join.hop domain=7 router=71 peer=72 group=" + g8 + " +0ms",
		"      bgmp.join.hop domain=3 router=32 peer=71 group=" + g8 + " +0ms",
		"        bgmp.join.hop domain=3 router=31 peer=32 group=" + g8 + " +0ms",
		"          bgmp.join.hop domain=1 router=12 peer=31 group=" + g8 + " +0ms",
		"            bgmp.join.hop domain=1 router=13 peer=12 group=" + g8 + " +0ms",
		"              bgmp.join.hop domain=2 router=21 peer=13 group=" + g8 + " +0ms",
		"",
	}, "\n")
	if got != want {
		t.Errorf("join span tree:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// The network is quiescent, so everything begun along the way — MASC
	// claim rounds, BGP updates, the join chain — has ended. This is what
	// holds a discarded Begin or a return path that forgets End.
	if open := tr.Open(); len(open) != 0 {
		t.Errorf("%d span(s) still open at quiescence:\n%s", len(open), obs.RenderTree(open))
	}
}

// groupLabel renders the group address the way RenderTree does (its
// numeric addr value), taken from the recorded spans so the golden does
// not hard-code the allocator's choice.
func groupLabel(t *testing.T, recs []obs.SpanRecord) string {
	t.Helper()
	for _, r := range recs {
		if r.Group != 0 {
			return strconv.FormatUint(uint64(r.Group), 10)
		}
	}
	t.Fatal("no span carries a group")
	return ""
}

// TestJoinSpanTreeIsDeterministic renders the same traced join twice from
// scratch and requires byte-identical output.
func TestJoinSpanTreeIsDeterministic(t *testing.T) {
	render := func() string {
		ob := obs.NewObserver()
		tr := obs.NewTracer(1998)
		ob.SetTracer(tr)
		n, clk := paperNetDP(t, false, false, "", ob)
		allocateSpaces(t, n, clk)
		lease, err := n.Domain(2).NewGroup(24 * time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []wire.DomainID{8, 6, 4} {
			n.Domain(d).Join(lease.Addr, 1)
		}
		return obs.RenderTree(tr.Records())
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("renders differ:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	if !strings.Contains(a, obs.SpanClaim.String()) {
		t.Fatalf("render missing claim spans:\n%s", a)
	}
}
