package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"mascbgmp/internal/addr"
)

// FuzzDecodeNext feeds arbitrary bytes to the frame decoder: it must never
// panic, any frame it accepts must re-encode to the identical bytes
// (round-trip stability), and the message must not alias the input. Every
// frame it accepts must also decode into a message of its type that a
// different frame was decoded into first (dirty) as the very message a
// fresh Decode gives — nil against empty lists included, no AS path, trace
// context or payload left over — and as free of aliases. The seed corpus
// covers every message type, the two retired type codes, an Update for a
// table that does not exist (the frame that used to crash the receiving
// speaker), traced frames and Data bitstrings whole, cut short and
// overstated.
func FuzzDecodeNext(f *testing.F) {
	for _, msg := range allMessages() {
		f.Add(Encode(msg))
	}
	f.Add([]byte{})
	f.Add(Encode(&Update{Table: Table(NumTables), Routes: []Route{{Prefix: addr.MustParsePrefix("10.0.0.0/8")}}}))
	f.Add([]byte{0x4D, 0x42, 1, 0x10})
	// Frames of the two retired session types, 0x11 (an empty keepalive)
	// and 0x13 (a notification: code, reason): both are unknown now.
	f.Add([]byte{0x4D, 0x42, 1, 0x11, 0, 0, 0, 0})
	f.Add([]byte{0x4D, 0x42, 1, 0x13, 0, 0, 0, 6, 2, 0, 0, 0, 1, 'x'})
	// A wire-v2 frame carrying the 24-byte trace block, and one cut inside it.
	traced := &GroupJoin{Group: addr.MakeAddr(224, 0, 128, 1)}
	Stamp(traced, TraceContext{Trace: 7, Span: 9, Start: 11})
	f.Add(Encode(traced))
	f.Add(reframe(Encode(traced)[:HeaderSize+TraceBlockSize-4]))
	// A Data frame cut inside its bitstring, and one whose word count
	// overstates what follows.
	bits := Encode(&Data{Group: addr.MakeAddr(224, 0, 128, 1), TTL: 9, Bits: []uint64{1, 2, 3}, Payload: []byte("x")})
	f.Add(reframe(bits[:len(bits)-12]))
	bits[HeaderSize+11] = 0xff // the count's low byte: 255 words announced, 3 present
	f.Add(bits)
	f.Fuzz(func(t *testing.T, data []byte) {
		data = bytes.Clone(data) // the engine's bytes must not be written to
		msg, rest, err := DecodeNext(data)
		if err != nil {
			return
		}
		consumed := data[:len(data)-len(rest)]
		re := Encode(msg)
		if !bytes.Equal(re, consumed) {
			t.Fatalf("round trip mismatch:\n in  %x\n out %x", consumed, re)
		}
		frame := bytes.Clone(consumed)
		into := dirty(t, msg.Type(), len(frame))
		if err := DecodeInto(frame, into); err != nil {
			t.Fatalf("Decode accepts %x, DecodeInto: %v", frame, err)
		}
		if !reflect.DeepEqual(into, msg) {
			t.Fatalf("frame %x\n into a reused %v %#v\n fresh %#v", frame, msg.Type(), into, msg)
		}
		requireNoAlias(t, into, frame)
		requireNoAlias(t, msg, consumed)
	})
}

// dirty returns a message of type typ that a frame unlike any seed's has been
// decoded into: a trace context, more of every list than a seed holds, an AS
// path on every route, every flag set, and for Data a tunnel, a bitstring
// and a payload longer than size bytes.
func dirty(t *testing.T, typ MsgType, size int) Message {
	t.Helper()
	g, s := addr.MakeAddr(232, 1, 2, 3), addr.MakeAddr(10, 7, 7, 7)
	p := addr.MustParsePrefix("232.1.0.0/16")
	var m Message
	switch typ {
	case TypeOpen:
		m = &Open{Router: 0xdead, Domain: 0xbeef}
	case TypeLiveness:
		m = &LivenessCtl{Generation: 9, IntervalUS: 9, Multiplier: 9, Demand: true}
	case TypeUpdate:
		u := &Update{Table: TableMRIB}
		for i := range 4 {
			q := addr.Prefix{Base: addr.MakeAddr(10, byte(i), 0, 0), Len: 16}
			u.Withdrawn = append(u.Withdrawn, q)
			u.Routes = append(u.Routes, Route{Prefix: q, ASPath: []DomainID{7, 8, 9, DomainID(i)}, Origin: 7, ExpireUnix: 99})
		}
		m = u
	case TypeClaim:
		m = &Claim{Claimer: 9, ClaimID: 9, Prefix: p, LifeSecs: 9}
	case TypeCollision:
		m = &Collision{From: 9, Loser: 9, Prefix: p, Conflict: p, Reason: CollideOutsideParent}
	case TypeRelease:
		m = &Release{Claimer: 9, Prefix: p}
	case TypeRangeAdvert:
		m = &RangeAdvert{Owner: 9, Ranges: []RangeLife{{p, 9}, {p, 9}, {p, 9}}}
	case TypeGroupJoin:
		m = &GroupJoin{Group: g}
	case TypeGroupPrune:
		m = &GroupPrune{Group: g}
	case TypeSourceJoin:
		m = &SourceJoin{Group: g, Source: s}
	case TypeSourcePrune:
		m = &SourcePrune{Group: g, Source: s}
	case TypeData:
		m = &Data{Group: g, Source: s, TTL: 3, Encap: true, TunnelTo: s,
			Bits: []uint64{5, 6, 7, 8, 9}, Payload: bytes.Repeat([]byte{0xA5}, size+64)}
	case TypeMemberReport:
		m = &MemberReport{Group: g, Domain: 9, Leave: true}
	default:
		t.Fatalf("no dirty message of type %v", typ)
	}
	Stamp(m, TraceContext{Trace: 0xA5, Span: 0x5A, Start: 1})
	into := newMessage(typ)
	if err := DecodeInto(Encode(m), into); err != nil {
		t.Fatalf("dirty %v: %v", typ, err)
	}
	return into
}

// reframe sets a cut frame's length field to the payload bytes left, so the
// cut is met by the message decoder, not the framing check.
func reframe(b []byte) []byte {
	binary.BigEndian.PutUint32(b[4:], uint32(len(b)-HeaderSize))
	return b
}
