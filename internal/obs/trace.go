package obs

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/wire"
)

// SpanName enumerates the spans the instrumented layers open.
type SpanName uint8

const (
	SpanMemberJoin     SpanName = iota + 1 // a domain-local member joined a group
	SpanMemberLeave                        // the last domain-local member left
	SpanJoinHop                            // a join/source-join processed at one hop
	SpanPruneHop                           // a prune/source-prune processed at one hop
	SpanRepair                             // RouteChanged re-attached trees
	SpanPeerDown                           // PeerDown failover processing
	SpanBGPUpdate                          // an inbound update's reselection
	SpanBGPWithdraw                        // RemoveNeighbor's withdrawal reselection
	SpanSessionDown                        // session supervision tore a peering down
	SpanLivenessDetect                     // the fast detector declared a peer dead
	SpanClaim                              // a MASC claim from announce to win/loss

	spanCount // sentinel; keep last
)

var spanNames = [spanCount]string{
	SpanMemberJoin:     "member.join",
	SpanMemberLeave:    "member.leave",
	SpanJoinHop:        "bgmp.join.hop",
	SpanPruneHop:       "bgmp.prune.hop",
	SpanRepair:         "bgmp.repair",
	SpanPeerDown:       "bgmp.peer_down",
	SpanBGPUpdate:      "bgp.update",
	SpanBGPWithdraw:    "bgp.withdraw",
	SpanSessionDown:    "session.down",
	SpanLivenessDetect: "liveness.detect",
	SpanClaim:          "masc.claim.round",
}

// String returns the span's trace name, e.g. "bgmp.join.hop".
func (n SpanName) String() string { return nameOf(spanNames[:], "span", uint8(n)) }

func (n SpanName) valid() bool { return n != 0 && n < spanCount }

// SpanRecord is one span: completed, or still open (End==Start, and
// listed by Tracer.Open).
type SpanRecord struct {
	Trace  uint64 // causal chain ID
	ID     uint64 // this span's ID
	Parent uint64 // parent span ID; zero for roots
	Name   SpanName
	Domain wire.DomainID
	Router wire.RouterID
	Peer   wire.RouterID
	Group  addr.Addr
	Start  uint64 // ns on the tracer's clock
	End    uint64
	ended  bool // End ran; a clockless tracer cannot tell from End alone
}

// Tracer allocates span and trace IDs from a deterministic seed stream
// (splitmix64) and records spans for export. A nil *Tracer is a valid
// no-op: Begin/BeginChild return zero Spans whose contexts are zero, so
// nothing downstream is stamped and all frames stay version 1.
//
// Time comes from the clock the owner attaches with SetNow (core wires the
// network's simulation clock; experiments wire theirs). With no clock all
// timestamps are zero — span structure is still recorded.
type Tracer struct {
	mu   sync.Mutex
	id   uint64           // splitmix64 state; guarded by mu
	now  func() time.Time // guarded by mu
	recs []SpanRecord     // guarded by mu
}

// NewTracer returns a Tracer whose ID stream derives from seed.
func NewTracer(seed int64) *Tracer {
	return &Tracer{id: uint64(seed)}
}

// SetNow attaches the time source (conventionally a simclock's Now method).
// Safe on nil.
func (t *Tracer) SetNow(now func() time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.now = now
	t.mu.Unlock()
}

// Now returns the tracer's current time in nanoseconds, zero when no clock
// is attached (or on a nil tracer). Instrumentation uses it to compute
// origin-to-here latencies against TraceContext.Start.
func (t *Tracer) Now() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.nowLocked()
}

func (t *Tracer) nowLocked() uint64 {
	if t.now == nil {
		return 0
	}
	return uint64(t.now().UnixNano())
}

// nextIDLocked advances the splitmix64 stream, skipping zero (a zero trace
// or span ID would read as "untraced").
func (t *Tracer) nextIDLocked() uint64 {
	for {
		t.id += 0x9e3779b97f4a7c15
		z := t.id
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		if z != 0 {
			return z
		}
	}
}

// Span is a handle on one recorded span. The zero Span (from a nil tracer
// or a zero parent context) is a no-op: End does nothing and Context
// returns the zero context.
type Span struct {
	t   *Tracer
	idx int
	ctx wire.TraceContext
}

// Context returns the context downstream messages should carry: this
// span's (trace, span) plus the chain root's start instant.
func (s Span) Context() wire.TraceContext { return s.ctx }

// End closes the span at the tracer's current time.
func (s Span) End() {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	s.t.recs[s.idx].End = s.t.nowLocked()
	s.t.recs[s.idx].ended = true
	s.t.mu.Unlock()
}

// Open returns the spans begun and never ended, in Records order. Every
// instrumented path ends what it begins, so at quiescence there are none;
// a test that traces a protocol exchange asserts it, which catches both a
// discarded Begin and a span some return path forgets to End. Safe on nil.
func (t *Tracer) Open() []SpanRecord {
	var open []SpanRecord
	for _, r := range t.Records() {
		if !r.ended {
			open = append(open, r)
		}
	}
	return open
}

// Begin starts a new trace rooted at a protocol-initiating event. The
// event supplies the span's scope labels (Domain/Router/Peer/Group). Safe
// on nil, and an undeclared name begins nothing (both return a no-op Span).
func (t *Tracer) Begin(name SpanName, e Event) Span {
	if t == nil || !name.valid() {
		return Span{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	trace := t.nextIDLocked()
	return t.beginLocked(trace, 0, 0, name, e)
}

// BeginChild starts a span under ctx's span in ctx's trace. A zero ctx
// (untraced message) or nil tracer yields a no-op Span, so propagation
// stops exactly where tracing stopped.
func (t *Tracer) BeginChild(ctx wire.TraceContext, name SpanName, e Event) Span {
	if t == nil || ctx.Zero() || !name.valid() {
		return Span{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.beginLocked(ctx.Trace, ctx.Span, ctx.Start, name, e)
}

func (t *Tracer) beginLocked(trace, parent, rootStart uint64, name SpanName, e Event) Span {
	id := t.nextIDLocked()
	now := t.nowLocked()
	if rootStart == 0 {
		rootStart = now
	}
	t.recs = append(t.recs, SpanRecord{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Domain: e.Domain, Router: e.Router, Peer: e.Peer, Group: e.Group,
		Start: now, End: now,
	})
	return Span{t: t, idx: len(t.recs) - 1,
		ctx: wire.TraceContext{Trace: trace, Span: id, Start: rootStart}}
}

// Records returns a copy of every recorded span, sorted by
// (Trace, Start, ID) — a total, deterministic order.
func (t *Tracer) Records() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]SpanRecord(nil), t.recs...)
	t.mu.Unlock()
	sortSpans(out)
	return out
}

// sortSpans orders spans by (Trace, Start, ID).
func sortSpans(recs []SpanRecord) {
	slices.SortFunc(recs, func(a, b SpanRecord) int {
		return cmp.Or(cmp.Compare(a.Trace, b.Trace), cmp.Compare(a.Start, b.Start), cmp.Compare(a.ID, b.ID))
	})
}

// micros renders a nanosecond count as Chrome's microsecond ticks with
// fixed sub-microsecond precision, avoiding float formatting entirely.
func micros(ns uint64) string {
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

// ChromeTrace renders spans as a Chrome trace-event JSON array (load via
// chrome://tracing or Perfetto): complete events (ph "X") with pid=domain
// and tid=router. The rendering is hand-marshalled and byte-deterministic
// for a given record list; pass records pre-sorted (Tracer.Records sorts).
// Timestamps are rebased to the earliest span start.
func ChromeTrace(recs []SpanRecord) []byte {
	var base uint64
	for i, r := range recs {
		if i == 0 || r.Start < base {
			base = r.Start
		}
	}
	var b strings.Builder
	b.WriteString("[\n")
	for i, r := range recs {
		if i > 0 {
			b.WriteString(",\n")
		}
		dur := uint64(0)
		if r.End > r.Start {
			dur = r.End - r.Start
		}
		fmt.Fprintf(&b,
			`{"name":%q,"cat":"mascbgmp","ph":"X","ts":%s,"dur":%s,"pid":%d,"tid":%d,`+
				`"args":{"trace":"%016x","span":"%016x","parent":"%016x","peer":%d,"group":%d}}`,
			r.Name, micros(r.Start-base), micros(dur), r.Domain, r.Router,
			r.Trace, r.ID, r.Parent, r.Peer, r.Group)
	}
	b.WriteString("\n]\n")
	return []byte(b.String())
}

// RenderTree renders spans as an indented text forest — one tree per
// trace, children under parents — for golden tests and terminal
// inspection. Deterministic: traces order by (root start, trace ID),
// children by (start, ID). Offsets are milliseconds from the trace root.
func RenderTree(recs []SpanRecord) string {
	sorted := append([]SpanRecord(nil), recs...)
	sortSpans(sorted)
	children := map[uint64][]SpanRecord{} // parent span ID → spans
	var roots []SpanRecord
	inTrace := map[uint64]bool{}
	for _, r := range sorted {
		inTrace[r.ID] = true
	}
	for _, r := range sorted {
		if r.Parent != 0 && inTrace[r.Parent] {
			children[r.Parent] = append(children[r.Parent], r)
		} else {
			roots = append(roots, r)
		}
	}
	var b strings.Builder
	var walk func(r SpanRecord, depth int, rootStart uint64)
	walk = func(r SpanRecord, depth int, rootStart uint64) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(r.Name.String() + scope{r.Domain, r.Router}.String())
		if r.Peer != 0 {
			fmt.Fprintf(&b, " peer=%d", r.Peer)
		}
		if r.Group != 0 {
			fmt.Fprintf(&b, " group=%d", r.Group)
		}
		fmt.Fprintf(&b, " +%dms", (r.Start-rootStart)/1e6)
		b.WriteString("\n")
		for _, c := range children[r.ID] {
			walk(c, depth+1, rootStart)
		}
	}
	for _, r := range roots {
		walk(r, 0, r.Start)
	}
	return b.String()
}
