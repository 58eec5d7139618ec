package topology

import (
	"bytes"
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g := ASGraph(200, 40, 7)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g, "as"); err != nil {
		t.Fatalf("WriteEdgeList: %v", err)
	}
	if !strings.HasPrefix(buf.String(), "# kind=as domains=200 ") {
		t.Errorf("header = %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
	back, err := ReadEdgeList(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if back.NumDomains() != g.NumDomains() || back.NumLinks() != g.NumLinks() {
		t.Fatalf("round trip: %d domains / %d links, want %d / %d",
			back.NumDomains(), back.NumLinks(), g.NumDomains(), g.NumLinks())
	}
	for a := 0; a < g.NumDomains(); a++ {
		for _, e := range g.Neighbors(DomainID(a)) {
			if !back.HasLink(DomainID(a), e.To) {
				t.Fatalf("round trip lost link %d-%d", a, e.To)
			}
		}
	}
	// A second write must reproduce the original bytes (modulo the
	// kind label, which Write takes as an argument).
	var buf2 bytes.Buffer
	if err := WriteEdgeList(&buf2, back, "as"); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("write-read-write is not byte-stable")
	}
}

func TestReadEdgeListNoHeader(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n1 2\n\n2 3\n"))
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumDomains() != 4 || g.NumLinks() != 3 {
		t.Errorf("inferred %d domains / %d links, want 4 / 3", g.NumDomains(), g.NumLinks())
	}
}

func TestReadEdgeListHeaderPreservesIsolatedDomains(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# kind=as domains=10 links=1\n0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumDomains() != 10 {
		t.Errorf("domains = %d, want 10 from header", g.NumDomains())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"0 1 2\n", `line 1: expected "a b" link`},
		{"0 1\nx y\n", "line 2: link endpoints"},
		{"0 1\n2 -3\n", "line 2: link endpoints"},
		{"0 1\n\n4 4\n", "line 3: self-loop"},
		{"# header only\n", "no links"},
		{"0 1\n0 4000000000\n", "line 2: link endpoint beyond the limit"},
		{"# domains=4000000000\n0 1\n", "line 1: domains=4000000000 exceeds the limit"},
	}
	for _, tc := range cases {
		_, err := ReadEdgeList(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("accepted %q", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("error %q does not mention %q", err, tc.want)
		}
	}
}
