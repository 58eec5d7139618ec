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
// (round-trip stability), and the message must not alias the input. A Data
// frame it accepts must also decode into a dirty, reused Data — a longer
// payload, a bitstring, a tunnel and the encap mark left over — as the very
// message a fresh Decode gives (nil against empty Bits included) and as free
// of aliases. The seed corpus covers every message type, the two retired
// type codes, an Update for a table that does not exist (the frame that used
// to crash the receiving speaker), traced frames and Data bitstrings whole,
// cut short and overstated.
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
		if _, ok := msg.(*Data); ok {
			frame := bytes.Clone(consumed)
			dirty := &Data{Group: 1, Source: 2, TTL: 3, Encap: true, TunnelTo: 4,
				Bits: []uint64{5, 6, 7, 8, 9}, Payload: bytes.Repeat([]byte{0xA5}, len(frame)+64)}
			if err := DecodeInto(frame, dirty); err != nil {
				t.Fatalf("Decode accepts %x, DecodeInto: %v", frame, err)
			}
			if !reflect.DeepEqual(dirty, msg) {
				t.Fatalf("frame %x\n into a reused Data %#v\n fresh               %#v", frame, dirty, msg)
			}
			requireNoAlias(t, dirty, frame)
		}
		requireNoAlias(t, msg, consumed)
	})
}

// reframe sets a cut frame's length field to the payload bytes left, so the
// cut is met by the message decoder, not the framing check.
func reframe(b []byte) []byte {
	binary.BigEndian.PutUint32(b[4:], uint32(len(b)-HeaderSize))
	return b
}
