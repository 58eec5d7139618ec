package wire

// Causal trace propagation. A TraceContext is a compact causality stamp
// carried hop-by-hop on protocol messages: the trace ID names the causal
// chain (one member join, one fault detection, one claim round), the span
// ID names the emitting hop, and Start pins the chain's origin instant so
// any downstream hop can measure end-to-end latency without clock
// negotiation. IDs come from a deterministic seed stream (internal/obs),
// never from wall clock, so same-seed runs produce byte-identical traces.
//
// Messages opt in by embedding TraceCarrier; Stamp and ContextOf are the
// nil-safe accessors the protocol layers use. A zero context means "not
// traced" and costs nothing on the wire: AppendFrame emits the classic
// version-1 frame for it, and only nonzero contexts switch the frame to
// TraceVersion with the 24-byte trace block between header and payload.

// TraceContext is the per-message causality stamp.
type TraceContext struct {
	// Trace identifies the causal chain; all spans of one traced
	// operation share it.
	Trace uint64
	// Span is the ID of the span that emitted the message; the receiving
	// hop parents its own span under it.
	Span uint64
	// Start is the chain root's begin instant in nanoseconds on the
	// emitting simulation clock, propagated unchanged so any hop can
	// compute origin-to-here latency.
	Start uint64
}

// Zero reports whether the context is the untraced zero value.
func (c TraceContext) Zero() bool { return c == TraceContext{} }

// TraceCarrier is embedded by messages that propagate trace contexts.
type TraceCarrier struct {
	ctx TraceContext
}

// TraceCtx implements Traceable.
func (t *TraceCarrier) TraceCtx() *TraceContext { return &t.ctx }

// Traceable is implemented (via TraceCarrier) by messages that carry a
// trace context in their frame.
type Traceable interface {
	TraceCtx() *TraceContext
}

// Stamp sets msg's trace context when the message carries one; messages
// without a TraceCarrier (keepalives, data packets, internal markers) are
// left alone.
func Stamp(msg Message, ctx TraceContext) {
	if c := carrier(msg); c != nil {
		c.ctx = ctx
	}
}

// ContextOf returns msg's trace context, zero when the message carries
// none.
func ContextOf(msg Message) TraceContext {
	if c := carrier(msg); c != nil {
		return c.ctx
	}
	return TraceContext{}
}

// carrier returns the TraceCarrier msg embeds, nil for a message without
// one: every frame encoded or decoded asks. It switches on the concrete
// types rather than asserting Traceable, because an assertion to an
// interface goes through the runtime's per-site cache, which grows — an
// allocation — at random calls until it has seen every type, and a join
// would then allocate now and then. TestRegistryExhaustive holds the list
// to the types that implement Traceable.
func carrier(msg Message) *TraceCarrier {
	switch m := msg.(type) {
	case *Update:
		return &m.TraceCarrier
	case *Claim:
		return &m.TraceCarrier
	case *Collision:
		return &m.TraceCarrier
	case *GroupJoin:
		return &m.TraceCarrier
	case *GroupPrune:
		return &m.TraceCarrier
	case *SourceJoin:
		return &m.TraceCarrier
	case *SourcePrune:
		return &m.TraceCarrier
	case *MemberReport:
		return &m.TraceCarrier
	}
	return nil
}
