package wire

import (
	"bytes"
	"testing"

	"mascbgmp/internal/addr"
)

// FuzzDecodeNext feeds arbitrary bytes to the frame decoder: it must never
// panic, any frame it accepts must re-encode to the identical bytes
// (round-trip stability), and the message must not alias the input. The
// seed corpus covers every message type, and an Update for a table that
// does not exist (the frame that used to crash the receiving speaker).
func FuzzDecodeNext(f *testing.F) {
	for _, msg := range allMessages() {
		f.Add(Encode(msg))
	}
	f.Add([]byte{})
	f.Add(Encode(&Update{Table: Table(NumTables), Routes: []Route{{Prefix: addr.MustParsePrefix("10.0.0.0/8")}}}))
	f.Add([]byte{0x4D, 0x42, 1, 0x10})
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
		requireNoAlias(t, msg, consumed)
	})
}
