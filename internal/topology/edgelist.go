package topology

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Edge-list IO: the topogen interchange format. One "a b" pair per
// link, preceded by a "# key=value ..." comment header with graph
// statistics. WriteEdgeList is the single producer (cmd/topogen calls
// it for both stdout and -out), ReadEdgeList the single consumer
// (file-kind scenario topologies), so the two stay round-trip exact.

// WriteEdgeList writes g in the edge-list format. kind labels the
// header (the generator name; informational only).
func WriteEdgeList(w io.Writer, g *Graph, kind string) error {
	bw := bufio.NewWriter(w)
	maxDeg := 0
	for d := 0; d < g.NumDomains(); d++ {
		if deg := g.Degree(DomainID(d)); deg > maxDeg {
			maxDeg = deg
		}
	}
	fmt.Fprintf(bw, "# kind=%s domains=%d links=%d avg_degree=%.2f max_degree=%d connected=%v\n",
		kind, g.NumDomains(), g.NumLinks(),
		2*float64(g.NumLinks())/float64(g.NumDomains()), maxDeg, g.Connected())
	for a := 0; a < g.NumDomains(); a++ {
		for _, e := range g.Neighbors(DomainID(a)) {
			if int(e.To) > a {
				fmt.Fprintf(bw, "%d %d\n", a, e.To)
			}
		}
	}
	return bw.Flush()
}

// maxEdgeListDomains bounds the graph a file may ask for: the domain count
// sizes an allocation, and the file comes from outside the program. The
// paper-scale graph has 3326 domains.
const maxEdgeListDomains = 1 << 20

// ReadEdgeList parses the edge-list format back into a Graph. The
// domain count comes from the header's domains= field when present
// (preserving isolated trailing domains); otherwise it is inferred as
// the highest endpoint + 1. Errors carry the 1-based line number.
// Domain counts and endpoints beyond maxEdgeListDomains are errors.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	domains := -1
	type link struct{ a, b DomainID }
	var links []link
	maxID := -1
	ln := 0
	for sc.Scan() {
		ln++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if domains < 0 {
				domains = headerDomains(text)
				if domains > maxEdgeListDomains {
					return nil, fmt.Errorf("line %d: domains=%d exceeds the limit of %d", ln, domains, maxEdgeListDomains)
				}
			}
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("line %d: expected \"a b\" link, got %q", ln, text)
		}
		a, errA := strconv.Atoi(fields[0])
		b, errB := strconv.Atoi(fields[1])
		if errA != nil || errB != nil || a < 0 || b < 0 {
			return nil, fmt.Errorf("line %d: link endpoints must be non-negative integers, got %q", ln, text)
		}
		if a >= maxEdgeListDomains || b >= maxEdgeListDomains {
			return nil, fmt.Errorf("line %d: link endpoint beyond the limit of %d domains, got %q", ln, maxEdgeListDomains, text)
		}
		if a == b {
			return nil, fmt.Errorf("line %d: self-loop %d-%d", ln, a, b)
		}
		if a > maxID {
			maxID = a
		}
		if b > maxID {
			maxID = b
		}
		links = append(links, link{DomainID(a), DomainID(b)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("line %d: %v", ln, err)
	}
	if maxID < 0 && domains <= 0 {
		return nil, fmt.Errorf("edge list has no links")
	}
	if domains <= maxID {
		domains = maxID + 1
	}
	g := New(domains)
	for _, l := range links {
		g.AddLink(l.a, l.b)
	}
	return g, nil
}

// headerDomains extracts the domains= field from a header comment,
// returning -1 when absent or malformed (the caller falls back to
// inference).
func headerDomains(text string) int {
	for _, f := range strings.Fields(text) {
		if v, ok := strings.CutPrefix(f, "domains="); ok {
			if n, err := strconv.Atoi(v); err == nil && n > 0 {
				return n
			}
		}
	}
	return -1
}
