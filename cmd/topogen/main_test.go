package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mascbgmp/internal/topology"
)

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestUsageErrorsExitTwo: a seed the hierarchy generator would ignore, an
// unknown generator and an unwritable -out are each exit 2 with one line
// on stderr and nothing on stdout.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-kind", "hierarchy", "-seed", "7"}, "-seed has no effect with -kind hierarchy"},
		{[]string{"-kind", "mesh"}, `unknown -kind "mesh"`},
		{[]string{"-n", "20", "-peering", "3", "-out", filepath.Join(t.TempDir(), "no", "such", "dir", "net.topo")}, "no such file or directory"},
	} {
		code, out, errb := runCLI(tc.args...)
		if code != 2 || out != "" || !strings.Contains(errb, tc.want) || strings.Count(errb, "\n") != 1 {
			t.Errorf("topogen %v: exit %d, stdout %q, stderr %q; want 2 and one line with %q",
				tc.args, code, out, errb, tc.want)
		}
	}
}

// TestOutFileRoundTrips: what -out writes is what ReadEdgeList reads, for
// both generators, and it is the edge list stdout would have carried.
func TestOutFileRoundTrips(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want *topology.Graph
	}{
		{[]string{"-kind", "as", "-n", "60", "-peering", "8", "-seed", "3"}, topology.ASGraph(60, 8, 3)},
		{[]string{"-kind", "hierarchy", "-top", "3", "-children", "4"}, hierarchy(3, 4)},
	} {
		path := filepath.Join(t.TempDir(), "net.topo")
		code, out, errb := runCLI(append(tc.args, "-out", path)...)
		if code != 0 || out != "" || !strings.Contains(errb, "wrote "+path) {
			t.Fatalf("topogen %v -out: exit %d, stdout %q, stderr %q", tc.args, code, out, errb)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, stdout, _ := runCLI(tc.args...); stdout != string(data) {
			t.Errorf("topogen %v: -out file and stdout differ", tc.args)
		}
		g, err := topology.ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("topogen %v: ReadEdgeList: %v", tc.args, err)
		}
		if g.NumDomains() != tc.want.NumDomains() || g.NumLinks() != tc.want.NumLinks() {
			t.Fatalf("topogen %v: read back %d domains, %d links; generated %d, %d", tc.args,
				g.NumDomains(), g.NumLinks(), tc.want.NumDomains(), tc.want.NumLinks())
		}
		for d := 0; d < g.NumDomains(); d++ {
			if got, want := g.Degree(topology.DomainID(d)), tc.want.Degree(topology.DomainID(d)); got != want {
				t.Fatalf("topogen %v: domain %d has degree %d after the round trip, generated with %d", tc.args, d, got, want)
			}
		}
	}
}

func hierarchy(top, children int) *topology.Graph {
	g, _, _ := topology.Hierarchy(top, children)
	return g
}
