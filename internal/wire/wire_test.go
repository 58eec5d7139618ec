package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mascbgmp/internal/addr"
)

// allMessages returns one populated instance of every message type.
func allMessages() []Message {
	return []Message{
		&Open{Router: 7, Domain: 3, HoldSecs: 90},
		&Keepalive{},
		&Notification{Code: NoteHoldExpired, Reason: "hold timer expired"},
		&LivenessCtl{Generation: 3, IntervalUS: 100_000, Multiplier: 3, Demand: true},
		&LivenessCtl{Generation: 1, IntervalUS: 10_000_000},
		&Update{
			Table:     TableGRIB,
			Withdrawn: []addr.Prefix{addr.MustParsePrefix("224.0.1.0/24")},
			Routes: []Route{
				{
					Prefix:     addr.MustParsePrefix("224.0.0.0/16"),
					ASPath:     []DomainID{1, 2, 3},
					Origin:     3,
					ExpireUnix: 1234567890,
				},
				{
					Prefix: addr.MustParsePrefix("239.0.0.0/8"),
					Origin: 9,
				},
			},
		},
		&Claim{Claimer: 12, ClaimID: 42, Prefix: addr.MustParsePrefix("228.0.0.0/22"), LifeSecs: 86400},
		&Collision{From: 4, Loser: 12, Prefix: addr.MustParsePrefix("228.0.0.0/22"),
			Conflict: addr.MustParsePrefix("228.0.0.0/16"), Reason: CollideInUse},
		&Release{Claimer: 12, Prefix: addr.MustParsePrefix("228.0.0.0/22")},
		&RangeAdvert{Owner: 1, Ranges: []RangeLife{
			{Prefix: addr.MustParsePrefix("224.0.0.0/16"), LifeSecs: 3600},
			{Prefix: addr.MustParsePrefix("230.0.0.0/8"), LifeSecs: 60},
		}},
		&GroupJoin{Group: addr.MakeAddr(224, 0, 128, 1)},
		&GroupPrune{Group: addr.MakeAddr(224, 0, 128, 1)},
		&SourceJoin{Group: addr.MakeAddr(224, 0, 128, 1), Source: addr.MakeAddr(10, 1, 2, 3)},
		&SourcePrune{Group: addr.MakeAddr(224, 0, 128, 1), Source: addr.MakeAddr(10, 1, 2, 3)},
		&Data{Group: addr.MakeAddr(224, 0, 128, 1), Source: addr.MakeAddr(10, 1, 2, 3),
			TTL: 32, Encap: true, Payload: []byte("hello multicast")},
		&Data{Group: addr.MakeAddr(224, 0, 128, 1), Source: addr.MakeAddr(10, 1, 2, 3),
			TTL: 16, TunnelTo: addr.MakeAddr(10, 9, 0, 0), Payload: []byte("tunneled")},
		&Data{Group: addr.MakeAddr(224, 0, 128, 1), Source: addr.MakeAddr(10, 1, 2, 3),
			TTL: 16, Bits: []uint64{0x14, 1}, Payload: []byte("bier")},
		&MemberReport{Group: addr.MakeAddr(224, 0, 128, 1), Domain: 6},
		&MemberReport{Group: addr.MakeAddr(224, 0, 128, 1), Domain: 6, Leave: true},
	}
}

func TestRoundTripAllMessages(t *testing.T) {
	for _, msg := range allMessages() {
		frame := Encode(msg)
		got, err := Decode(frame)
		if err != nil {
			t.Fatalf("%v: decode: %v", msg.Type(), err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("%v round trip:\n got %#v\nwant %#v", msg.Type(), got, msg)
		}
	}
}

// requireNoAlias checks the precondition for reusing a frame buffer: msg,
// decoded from frame, holds no reference into it. The frame is scribbled
// over and msg must still re-encode to the original bytes.
func requireNoAlias(t *testing.T, msg Message, frame []byte) {
	t.Helper()
	want := bytes.Clone(frame)
	for i := range frame {
		frame[i] ^= 0xff
	}
	if got := Encode(msg); !bytes.Equal(got, want) {
		t.Fatalf("%v aliases its input: after overwriting the frame it re-encodes to\n %x\nwant %x",
			msg.Type(), got, want)
	}
}

func TestDecodeNeverAliasesInput(t *testing.T) {
	msgs := allMessages()
	traced := &Data{Group: addr.MakeAddr(224, 0, 128, 1), TTL: 8, Payload: []byte("traced")}
	Stamp(traced, TraceContext{Trace: 1, Span: 2, Start: 3})
	for _, msg := range append(msgs, traced) {
		frame := Encode(msg)
		got, err := Decode(frame)
		if err != nil {
			t.Fatalf("%v: decode: %v", msg.Type(), err)
		}
		requireNoAlias(t, got, frame)
	}
}

// An Update for a table that does not exist is a decode error, like an
// invalid prefix: no receiver ever sees it.
func TestUpdateUnknownTableRejected(t *testing.T) {
	for _, table := range []Table{Table(NumTables), 9, 255} {
		frame := Encode(&Update{Table: table, Routes: []Route{{Prefix: addr.MustParsePrefix("10.0.0.0/8")}}})
		if msg, err := Decode(frame); err == nil {
			t.Errorf("table %d: decoded to %#v, want an error", table, msg)
		}
	}
	for table := Table(0); int(table) < NumTables; table++ {
		if _, err := Decode(Encode(&Update{Table: table})); err != nil {
			t.Errorf("table %v: %v", table, err)
		}
	}
}

// The Update decoder allocates each list once at its announced length, so
// a count the frame cannot back must fail before anything is allocated
// for it — and an honest frame costs one allocation per list.
func TestUpdateDecodeAllocatesAnnouncedSizesOnly(t *testing.T) {
	forged := [][]byte{
		{byte(TableGRIB), 0xff, 0xff},                       // 65535 withdrawals, none present
		{byte(TableGRIB), 0, 0, 0xff, 0xff, 10, 0, 0, 0, 8}, // 65535 routes in 5 bytes
		{byte(TableGRIB), 0, 0, 0, 1, 10, 0, 0, 0, 8, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // 65535 hops
	}
	for i, payload := range forged {
		var m Update
		allocs := testing.AllocsPerRun(10, func() {
			if err := m.DecodePayload(payload); err != ErrTruncated {
				t.Fatalf("forged payload %d: err = %v, want ErrTruncated", i, err)
			}
		})
		// The one-route case allocates its single Route before the forged
		// path count is read; nothing may be sized by a forged count.
		if allocs > 1 {
			t.Errorf("forged payload %d: %v allocations, want at most 1", i, allocs)
		}
		if cap(m.Withdrawn) > 0 || cap(m.Routes) > 1 {
			t.Errorf("forged payload %d: allocated %d withdrawals, %d routes", i, cap(m.Withdrawn), cap(m.Routes))
		}
	}

	honest := &Update{Table: TableGRIB, Withdrawn: []addr.Prefix{addr.MustParsePrefix("224.0.1.0/24")}}
	for i := 0; i < 8; i++ {
		honest.Routes = append(honest.Routes, Route{
			Prefix: addr.Prefix{Base: addr.MakeAddr(224, 1, byte(i), 0), Len: 24},
			ASPath: []DomainID{1, 2, 3, 4, 5}, Origin: 5,
		})
	}
	payload := honest.AppendPayload(nil)
	var m Update
	if got, want := testing.AllocsPerRun(10, func() {
		if err := m.DecodePayload(payload); err != nil {
			t.Fatal(err)
		}
	}), float64(2+len(honest.Routes)); got != want {
		t.Errorf("honest update: %v allocations, want %v (the two lists and one path per route)", got, want)
	}
	if !reflect.DeepEqual(&m, honest) {
		t.Errorf("honest update decoded to %#v", m)
	}
}

// TestDataDecodeAllocatesAnnouncedBitsOnly: a Data frame's bitstring is
// made once, at the announced width, after the width has been checked
// against the bytes that follow — so a forged count allocates nothing. Both
// entry points are held to it: Decode pays for the message and a string of
// exactly the announced size, DecodeInto into a Data that has held one as
// wide pays nothing, and neither lets an overstated count size anything.
func TestDataDecodeAllocatesAnnouncedBitsOnly(t *testing.T) {
	for _, words := range []int{0, 1, 4, 64, 1000} {
		honest := &Data{Group: addr.MakeAddr(224, 0, 128, 1), TTL: 9, Bits: make([]uint64, words)}
		for i := range honest.Bits {
			honest.Bits[i] = uint64(i) + 1
		}
		frame := Encode(honest)
		check := func(how string, m *Data) {
			t.Helper()
			if m.Bits == nil || !reflect.DeepEqual(m.Bits, honest.Bits) {
				t.Errorf("%s, %d-word bitstring decoded to %v", how, words, m.Bits)
			}
		}

		wantFresh := 2.0 // the message and its string
		if words == 0 {
			wantFresh = 1 // present but empty: non-nil, nothing behind it
		}
		var fresh Message
		if got := testing.AllocsPerRun(10, func() {
			var err error
			if fresh, err = Decode(frame); err != nil {
				t.Fatal(err)
			}
		}); got != wantFresh {
			t.Errorf("Decode, %d-word bitstring: %v allocations, want %v", words, got, wantFresh)
		}
		check("Decode", fresh.(*Data))
		if got := cap(fresh.(*Data).Bits); got != words {
			t.Errorf("Decode, %d-word bitstring: made room for %d words", words, got)
		}

		var m Data
		if err := DecodeInto(frame, &m); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(10, func() {
			if err := DecodeInto(frame, &m); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("DecodeInto, %d-word bitstring into a Data that held one: %v allocations, want 0", words, got)
		}
		check("DecodeInto", &m)

		// The same frame announcing more words than it has, up to all a
		// count can say: an error, and only Decode's message is allocated.
		for _, claim := range []int{words + 1, 0xffff} {
			forged := bytes.Clone(frame)
			binary.BigEndian.PutUint16(forged[HeaderSize+10:], uint16(claim))
			if got := testing.AllocsPerRun(10, func() {
				if _, err := Decode(forged); err != ErrTruncated {
					t.Fatalf("Decode, %d words announced, %d present: err = %v, want ErrTruncated", claim, words, err)
				}
			}); got != 1 {
				t.Errorf("Decode, %d words announced, %d present: %v allocations, want 1 (the message)", claim, words, got)
			}
			for _, into := range []*Data{{}, &m} { // nothing to reuse; a string to reuse
				if got := testing.AllocsPerRun(10, func() {
					if err := DecodeInto(forged, into); err != ErrTruncated {
						t.Fatalf("DecodeInto, %d words announced, %d present: err = %v, want ErrTruncated", claim, words, err)
					}
				}); got != 0 || len(into.Bits) != 0 {
					t.Errorf("DecodeInto, %d words announced, %d present: %v allocations, %d words made, want none",
						claim, words, got, len(into.Bits))
				}
			}
		}
	}
}

func TestEmptyCollectionsRoundTrip(t *testing.T) {
	for _, msg := range []Message{
		&Update{Table: TableMRIB},
		&RangeAdvert{Owner: 5},
		&Data{Group: addr.MakeAddr(224, 1, 1, 1)},
	} {
		got, err := Decode(Encode(msg))
		if err != nil {
			t.Fatalf("%v: %v", msg.Type(), err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("%v:\n got %#v\nwant %#v", msg.Type(), got, msg)
		}
	}
}

// The data-plane header extensions must not disturb the classic encoding:
// a frame without TunnelTo/Bits carries only the original fields, and
// undefined flag bits are still rejected.
func TestDataFlagCompatibility(t *testing.T) {
	classic := &Data{Group: addr.MakeAddr(224, 1, 1, 1), Source: addr.MakeAddr(10, 0, 0, 1),
		TTL: 8, Payload: []byte("x")}
	payload := classic.AppendPayload(nil)
	// group(4) + source(4) + ttl(1) + flags(1) + len(4) + payload(1)
	if len(payload) != 15 {
		t.Errorf("classic data payload is %d bytes, want 15", len(payload))
	}
	if payload[9] != 0 {
		t.Errorf("classic data flags byte = 0x%02x, want 0", payload[9])
	}

	bad := bytes.Clone(payload)
	bad[9] = 0x08 // first undefined flag bit
	var m Data
	if err := m.DecodePayload(bad); err == nil {
		t.Error("undefined data flag bits must fail decode")
	}

	// An explicitly empty (non-nil) bitstring survives a round trip.
	empty := &Data{Group: addr.MakeAddr(224, 1, 1, 1), TTL: 4, Bits: []uint64{}}
	got, err := Decode(Encode(empty))
	if err != nil {
		t.Fatalf("empty bits: %v", err)
	}
	if !reflect.DeepEqual(got, empty) {
		t.Errorf("empty bits round trip:\n got %#v\nwant %#v", got, empty)
	}

	badReport := (&MemberReport{Group: addr.MakeAddr(224, 1, 1, 1), Domain: 3}).AppendPayload(nil)
	badReport[len(badReport)-1] = 0x02
	var mr MemberReport
	if err := mr.DecodePayload(badReport); err == nil {
		t.Error("undefined member-report flag bits must fail decode")
	}
}

func TestDecodeNextStream(t *testing.T) {
	msgs := allMessages()
	var stream []byte
	for _, m := range msgs {
		stream = AppendFrame(stream, m)
	}
	var got []Message
	rest := stream
	for len(rest) > 0 {
		m, r, err := DecodeNext(rest)
		if err != nil {
			t.Fatalf("DecodeNext: %v", err)
		}
		got = append(got, m)
		rest = r
	}
	if len(got) != len(msgs) {
		t.Fatalf("decoded %d messages, want %d", len(got), len(msgs))
	}
	for i := range msgs {
		if !reflect.DeepEqual(got[i], msgs[i]) {
			t.Errorf("message %d mismatch", i)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	good := Encode(&Keepalive{})

	short := good[:4]
	if _, err := Decode(short); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short frame: %v", err)
	}

	badMagic := bytes.Clone(good)
	badMagic[0] = 0xFF
	if _, err := Decode(badMagic); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}

	badVer := bytes.Clone(good)
	badVer[2] = 9
	if _, err := Decode(badVer); !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}

	badType := bytes.Clone(good)
	badType[3] = 0xEE
	if _, err := Decode(badType); !errors.Is(err, ErrUnknownType) {
		t.Errorf("bad type: %v", err)
	}

	badLen := bytes.Clone(good)
	badLen[7] = 200 // claims 200-byte payload that is not there
	if _, err := Decode(badLen); !errors.Is(err, ErrBadLength) {
		t.Errorf("bad length: %v", err)
	}

	trailing := append(bytes.Clone(good), 0xAB)
	if _, err := Decode(trailing); !errors.Is(err, ErrTrailing) {
		t.Errorf("trailing: %v", err)
	}
}

func TestDecodeHugeLengthRejected(t *testing.T) {
	frame := Encode(&Keepalive{})
	frame[4], frame[5], frame[6], frame[7] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := Decode(frame); !errors.Is(err, ErrBadLength) {
		t.Errorf("huge length: %v", err)
	}
}

func TestTruncatedPayloads(t *testing.T) {
	for _, msg := range allMessages() {
		frame := Encode(msg)
		payloadLen := len(frame) - HeaderSize
		if payloadLen == 0 {
			continue
		}
		// Chop one byte off the payload and fix up the length field so the
		// frame parses but the payload decode must fail.
		trunc := bytes.Clone(frame[:len(frame)-1])
		trunc[4], trunc[5], trunc[6], trunc[7] = 0, 0, 0, 0
		trunc[7] = byte(payloadLen - 1)
		trunc[6] = byte((payloadLen - 1) >> 8)
		if _, err := Decode(trunc); err == nil {
			t.Errorf("%v: truncated payload decoded without error", msg.Type())
		}
	}
}

func TestTrailingPayloadBytesRejected(t *testing.T) {
	// A GroupJoin payload with an extra byte must be rejected by done().
	inner := (&GroupJoin{Group: addr.MakeAddr(224, 1, 2, 3)}).AppendPayload(nil)
	inner = append(inner, 0x00)
	var frame []byte
	frame = append(frame, 0x4D, 0x42, Version, byte(TypeGroupJoin), 0, 0, 0, byte(len(inner)))
	frame = append(frame, inner...)
	if _, err := Decode(frame); !errors.Is(err, ErrTrailing) {
		t.Errorf("trailing payload bytes: %v", err)
	}
}

func TestInvalidPrefixRejected(t *testing.T) {
	// Hand-craft a Claim whose prefix has host bits set.
	var payload []byte
	payload = appendU32(payload, 12)         // claimer
	payload = appendU64(payload, 1)          // claim id
	payload = appendU32(payload, 0xE0000001) // 224.0.0.1
	payload = append(payload, 24)            // /24 → host bits set
	payload = appendU32(payload, 60)
	var frame []byte
	frame = append(frame, 0x4D, 0x42, Version, byte(TypeClaim), 0, 0, 0, byte(len(payload)))
	frame = append(frame, payload...)
	if _, err := Decode(frame); err == nil {
		t.Error("invalid prefix must fail decode")
	}
}

func TestRouteHelpers(t *testing.T) {
	rt := Route{Prefix: addr.MustParsePrefix("224.0.0.0/16"), ASPath: []DomainID{1, 2}}
	if !rt.HasLoop(2) || rt.HasLoop(3) {
		t.Error("HasLoop wrong")
	}
	cp := rt.Clone()
	cp.ASPath[0] = 99
	if rt.ASPath[0] != 1 {
		t.Error("Clone must deep-copy ASPath")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	seen := map[string]MsgType{}
	for _, m := range allMessages() {
		s := m.Type().String()
		if prev, dup := seen[s]; s == "" || (dup && prev != m.Type()) {
			t.Errorf("bad or duplicate MsgType string %q", s)
		}
		seen[s] = m.Type()
	}
	if MsgType(0xEE).String() != "MsgType(0xee)" {
		t.Errorf("unknown type formatting: %s", MsgType(0xEE))
	}
	if TableUnicast.String() != "unicast" || TableGRIB.String() != "G-RIB" || TableMRIB.String() != "M-RIB" {
		t.Error("Table strings")
	}
	if Table(99).String() == "" {
		t.Error("unknown table should format")
	}
}

// TestRegistryExhaustive holds the three places a message type is
// registered — the decoder switch, MsgType.String and allMessages — to one
// another over every type byte, so a new message cannot decode without a
// name, carry a name without decoding, re-encode under another type, or be
// skipped by the round-trip, no-alias and fuzz-seed tests.
func TestRegistryExhaustive(t *testing.T) {
	sampled := map[MsgType]bool{}
	for _, m := range allMessages() {
		sampled[m.Type()] = true
	}
	for i := 0; i < 256; i++ {
		typ := MsgType(i)
		named := typ.String() != fmt.Sprintf("MsgType(0x%02x)", i)
		m := newMessage(typ)
		if (m != nil) != named {
			t.Errorf("0x%02x: decodable=%v but named=%v (%s)", i, m != nil, named, typ)
		}
		if m == nil {
			continue
		}
		if m.Type() != typ {
			t.Errorf("newMessage(%s) is a %T whose Type() is %s", typ, m, m.Type())
		}
		if !sampled[typ] {
			t.Errorf("allMessages has no %s sample", typ)
		}
	}
}

// Fuzz-style property: random byte garbage never panics and never returns a
// message together with a nil error for frames with corrupted internals.
func TestDecodeRandomGarbageNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 5000; i++ {
		n := r.Intn(64)
		b := make([]byte, n)
		r.Read(b)
		_, _, _ = DecodeNext(b) // must not panic
	}
}

// Property: flipping any single byte of an encoded frame either fails to
// decode or decodes to a message that still re-encodes within bounds
// (no panics, no corruption-induced crashes).
func TestBitFlipRobustness(t *testing.T) {
	for _, msg := range allMessages() {
		frame := Encode(msg)
		for i := range frame {
			mut := bytes.Clone(frame)
			mut[i] ^= 0xFF
			m, err := Decode(mut)
			if err == nil && m != nil {
				_ = Encode(m) // must not panic
			}
		}
	}
}

func BenchmarkEncodeUpdate(b *testing.B) {
	msg := &Update{
		Table: TableGRIB,
		Routes: []Route{{
			Prefix: addr.MustParsePrefix("224.0.0.0/16"),
			ASPath: []DomainID{1, 2, 3, 4, 5},
			Origin: 5,
		}},
	}
	b.ReportAllocs()
	buf := make([]byte, 0, 256)
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], msg)
	}
}

func BenchmarkDecodeUpdate(b *testing.B) {
	frame := Encode(&Update{
		Table: TableGRIB,
		Routes: []Route{{
			Prefix: addr.MustParsePrefix("224.0.0.0/16"),
			ASPath: []DomainID{1, 2, 3, 4, 5},
			Origin: 5,
		}},
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}
