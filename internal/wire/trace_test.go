package wire

import (
	"bytes"
	"reflect"
	"testing"

	"mascbgmp/internal/addr"
)

// traceableMessages returns one instance of every message that embeds
// TraceCarrier.
func traceableMessages() []Message {
	var out []Message
	for _, m := range allMessages() {
		if _, ok := m.(Traceable); ok {
			out = append(out, m)
		}
	}
	return out
}

func TestTraceContextRoundTrip(t *testing.T) {
	ctx := TraceContext{Trace: 0xdeadbeefcafe0001, Span: 0x1234, Start: 987654321}
	msgs := traceableMessages()
	if len(msgs) == 0 {
		t.Fatal("no traceable messages")
	}
	for _, msg := range msgs {
		Stamp(msg, ctx)
		frame := Encode(msg)
		if frame[2] != TraceVersion {
			t.Fatalf("%v: stamped frame version %d, want %d", msg.Type(), frame[2], TraceVersion)
		}
		got, err := Decode(frame)
		if err != nil {
			t.Fatalf("%v: decode: %v", msg.Type(), err)
		}
		if gc := ContextOf(got); gc != ctx {
			t.Fatalf("%v: context %+v, want %+v", msg.Type(), gc, ctx)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("%v stamped round trip:\n got %#v\nwant %#v", msg.Type(), got, msg)
		}
	}
}

func TestUntracedFramesStayVersion1(t *testing.T) {
	// The zero context must cost nothing on the wire: stamping it leaves
	// every frame byte-identical to the never-stamped encoding.
	for _, msg := range allMessages() {
		before := Encode(msg)
		Stamp(msg, TraceContext{})
		after := Encode(msg)
		if !bytes.Equal(before, after) {
			t.Fatalf("%v: zero stamp changed the frame", msg.Type())
		}
		if after[2] != Version {
			t.Fatalf("%v: untraced frame version %d, want %d", msg.Type(), after[2], Version)
		}
	}
}

func TestStampOnUntraceableMessageIsNoOp(t *testing.T) {
	msg := &Open{Router: 7, Domain: 3}
	Stamp(msg, TraceContext{Trace: 1, Span: 2, Start: 3})
	if ctx := ContextOf(msg); !ctx.Zero() {
		t.Fatalf("open carries context %+v", ctx)
	}
}

func TestTraceBlockTruncationRejected(t *testing.T) {
	msg := &GroupJoin{Group: addr.MakeAddr(224, 0, 128, 1)}
	Stamp(msg, TraceContext{Trace: 7, Span: 8, Start: 9})
	frame := Encode(msg)
	// Shrink the frame's length field and body so fewer than
	// TraceBlockSize payload bytes remain: the decoder must reject it
	// rather than read past the block.
	short := append([]byte(nil), frame[:len(frame)-(TraceBlockSize-4)]...)
	n := len(short) - 5 // payload length excluding the 5-byte header
	short[3], short[4] = byte(n>>8), byte(n)
	if _, err := Decode(short); err == nil {
		t.Fatal("truncated trace block decoded without error")
	}
}

func TestTraceContextZero(t *testing.T) {
	if !(TraceContext{}).Zero() {
		t.Fatal("zero context not Zero()")
	}
	if (TraceContext{Start: 1}).Zero() {
		t.Fatal("nonzero context reported Zero()")
	}
}
