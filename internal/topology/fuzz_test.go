package topology

import (
	"bytes"
	"testing"
)

// FuzzReadEdgeList feeds arbitrary bytes to the edge-list reader — the
// format a file-kind scenario topology brings in from outside the program.
// It must never panic (or size an allocation from an unchecked number),
// and a graph it accepts must survive WriteEdgeList → ReadEdgeList with
// the same domains and links, byte-stable on the second write.
func FuzzReadEdgeList(f *testing.F) {
	for _, g := range []*Graph{ASGraph(40, 8, 7), ASGraph(5, 0, 1), New(3)} {
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g, "seed"); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("0 1\n1 2\n\n2 3\n"))
	f.Add([]byte("0 1\n0 4000000000\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := WriteEdgeList(&first, g, "fuzz"); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEdgeList(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reader rejects the writer's output: %v\n%s", err, first.Bytes())
		}
		if back.NumDomains() != g.NumDomains() || back.NumLinks() != g.NumLinks() {
			t.Fatalf("round trip: %d domains / %d links, want %d / %d",
				back.NumDomains(), back.NumLinks(), g.NumDomains(), g.NumLinks())
		}
		if err := WriteEdgeList(&second, back, "fuzz"); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("write-read-write is not byte-stable")
		}
	})
}
