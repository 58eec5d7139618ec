package core

import (
	"mascbgmp/internal/addr"
	"mascbgmp/internal/migp"
	"mascbgmp/internal/wire"
)

// World is an internetwork as a value: its domains, the external peerings
// between their border routers, and the MASC peerings — sibling pairs, and
// parent-child pairs as {parent, child}. Build makes it.
type World struct {
	Domains            []DomainConfig
	Links              [][2]wire.RouterID
	Siblings, Children [][2]wire.DomainID
}

// Build returns a network made with cfg that holds w. It adds the domains,
// makes the links, then sets up the MASC sibling and parent-child peerings,
// each in list order, and returns the first error.
func (w World) Build(cfg Config) (*Network, error) {
	n, err := NewNetwork(cfg)
	for i := 0; err == nil && i < len(w.Domains); i++ {
		_, err = n.AddDomain(w.Domains[i])
	}
	for i := 0; err == nil && i < len(w.Links); i++ {
		err = n.Link(w.Links[i][0], w.Links[i][1])
	}
	for i := 0; err == nil && i < len(w.Siblings); i++ {
		err = n.MASCPeerSiblings(w.Siblings[i][0], w.Siblings[i][1])
	}
	for i := 0; err == nil && i < len(w.Children); i++ {
		err = n.MASCPeerParentChild(w.Children[i][0], w.Children[i][1])
	}
	if err != nil {
		return nil, err
	}
	return n, nil
}

// PaperWorld returns the internetwork of the paper's Figures 1 and 3(b):
//
//	Domain A (1): routers A1=11 A2=12 A3=13 A4=14 — backbone
//	Domain B (2): B1=21 B2=22 — regional, customer of A
//	Domain C (3): C1=31 C2=32 — regional, customer of A
//	Domain D (4): D1=41 — backbone
//	Domain E (5): E1=51 — backbone
//	Domain F (6): F1=61 F2=62 — customer of B
//	Domain G (7): G1=71 G2=72 — customer of C
//	Domain H (8): H1=81 — customer of G
//
// Links: E1–A1, C1–A2, B1–A3, D1–A4, F1–B2, G1–C2, H1–G2, and last the
// F2–A4 link of Fig 3(b); Fig 1 is the world without it. Every domain runs
// DVMRP over its border routers and two more interior nodes and originates
// 10.<id>.0.0/16. MASC: A, D and E are top-level siblings; B and C claim
// from A, F from B, G from C, H from G.
func PaperWorld() World {
	w := World{
		Links: [][2]wire.RouterID{
			{51, 11}, {31, 12}, {21, 13}, {41, 14},
			{61, 22}, {71, 32}, {81, 72},
			{62, 14},
		},
		Siblings: [][2]wire.DomainID{{1, 4}, {1, 5}, {4, 5}},
		Children: [][2]wire.DomainID{{1, 2}, {1, 3}, {2, 6}, {3, 7}, {7, 8}},
	}
	for i, rs := range [][]wire.RouterID{{11, 12, 13, 14}, {21, 22}, {31, 32}, {41}, {51}, {61, 62}, {71, 72}, {81}} {
		id := wire.DomainID(i + 1)
		w.Domains = append(w.Domains, DomainConfig{
			ID: id, Routers: rs, InteriorNodes: len(rs) + 2, Protocol: migp.DVMRP(),
			TopLevel:   id == 1 || id == 4 || id == 5,
			HostPrefix: addr.Prefix{Base: addr.MakeAddr(10, byte(id), 0, 0), Len: 16},
		})
	}
	return w
}
