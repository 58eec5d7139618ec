package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mascbgmp/internal/addr"
	"mascbgmp/internal/bgmp"
	"mascbgmp/internal/wire"
)

// treeViolations checks the shared trees of groups on a quiesced network
// against §5.2 and DESIGN.md §12 (ROADMAP item 1(a), the tree half):
//
//   - per group, the (*,G) entries form one acyclic tree: every parent
//     chain ends at an entry whose parent is the interior, in the domain
//     whose MAAS range holds the group most specifically (the root
//     domain);
//   - parent and child targets are symmetric: a peer parent p holds this
//     router as a peer child, a sibling parent s holds it as an interior
//     child toward this router, and the other way round;
//   - no entry is left without a child;
//   - an armed backup parent is not the parent itself.
//
// It returns one line per violation, naming the section, sorted; nil when
// the trees hold.
func treeViolations(net *Network, groups []addr.Addr) []string {
	var out []string
	type tree struct {
		parent   bgmp.Target
		children []bgmp.Target
		backup   bgmp.Target
		armed    bool
	}
	for _, g := range groups {
		root, ok := rootDomain(net, g)
		if !ok {
			out = append(out, fmt.Sprintf("§5.2 group %v: no domain holds a range containing it", g))
			continue
		}
		var ids []wire.RouterID // routers with an entry, in network order
		entries := map[wire.RouterID]tree{}
		for _, d := range net.Domains() {
			for _, r := range d.Routers() {
				if parent, children, ok := r.BGMP().GroupEntry(g); ok {
					e := tree{parent: parent, children: children}
					e.backup, e.armed = r.BGMP().BackupParent(g)
					entries[r.ID] = e
					ids = append(ids, r.ID)
				}
			}
		}
		for _, id := range ids {
			e := entries[id]
			bad := func(section, format string, args ...any) {
				out = append(out, fmt.Sprintf("%s group %v router %d: %s", section, g, id, fmt.Sprintf(format, args...)))
			}
			if e.parent != bgmp.MIGPTarget {
				back := bgmp.Target{MIGP: e.parent.MIGP, Router: id}
				if pe, ok := entries[e.parent.Router]; !ok || !slices.Contains(pe.children, back) {
					bad("§5.2", "parent %v does not list %v as a child", e.parent, back)
				}
			}
			for _, c := range e.children {
				if c.Router == 0 {
					continue // the domain's own members
				}
				back := bgmp.Target{MIGP: c.MIGP, Router: id}
				if ce, ok := entries[c.Router]; !ok || ce.parent != back {
					bad("§5.2", "child %v does not have %v as its parent", c, back)
				}
			}
			if len(e.children) == 0 {
				bad("§5.2", "an entry with no child")
			}
			if e.armed && e.backup == e.parent {
				bad("§12", "backup parent %v is the parent", e.backup)
			}
			seen := map[wire.RouterID]bool{}
			for at := id; ; at = entries[at].parent.Router {
				ce, ok := entries[at]
				if seen[at] {
					bad("§5.2", "the parent chain loops at router %d", at)
					break
				}
				if !ok {
					bad("§5.2", "the parent chain leaves the tree at router %d", at)
					break
				}
				if ce.parent == bgmp.MIGPTarget {
					if d := net.Router(at).domain.ID; d != root {
						bad("§5.2", "the parent chain ends at router %d in domain %d, not root domain %d", at, d, root)
					}
					break
				}
				seen[at] = true
			}
		}
	}
	sort.Strings(out)
	return out
}

// rootDomain returns the domain whose MAAS range holds g most specifically.
func rootDomain(net *Network, g addr.Addr) (wire.DomainID, bool) {
	var root wire.DomainID
	best := -1
	for _, d := range net.Domains() {
		for _, p := range d.MAAS().Ranges() {
			if p.Contains(g) && p.Len > best {
				root, best = d.ID, p.Len
			}
		}
	}
	return root, best >= 0
}

// groupEntries counts the (*,G) entries of every router.
func groupEntries(net *Network) int {
	n := 0
	for _, d := range net.Domains() {
		for _, r := range d.Routers() {
			groups, _ := r.BGMP().StateSize()
			n += groups
		}
	}
	return n
}

// TestChurnKeepsTreesValid holds the shared trees to treeViolations under
// the join/leave churn arXiv cs/9809102 analyses: on a 60-domain asWorld,
// each of thirty passes joins five non-member domains to every group and
// then makes them leave again in a shuffled order, with the checker after
// each half-pass, and at the end one packet per group must reach exactly
// its members. No link flaps: those belong to Known deviation 5.
func TestChurnKeepsTreesValid(t *testing.T) {
	w := newASWorld(t, 60, 40, 1998, nil)
	groups := make([]addr.Addr, len(w.groups))
	for i, wg := range w.groups {
		groups[i] = wg.addr
	}
	check := func(when string) {
		t.Helper()
		if vs := treeViolations(w.net, groups); len(vs) > 0 {
			t.Fatalf("%s: %d violations, the first: %s", when, len(vs), vs[0])
		}
	}
	check("after set-up")
	domains := w.net.Domains()
	rng := rand.New(rand.NewSource(7))
	type join struct {
		d *Domain
		g addr.Addr
	}
	most := 0
	for pass := 0; pass < 30; pass++ {
		var joined []join
		for _, wg := range w.groups {
			picked := 0
			for _, i := range rng.Perm(len(domains)) {
				if d := domains[i]; picked < 5 && !slices.Contains(wg.members, d.ID) {
					d.Join(wg.addr, 0)
					joined = append(joined, join{d, wg.addr})
					picked++
				}
			}
		}
		check(fmt.Sprintf("pass %d, joined", pass))
		most = max(most, groupEntries(w.net))
		rng.Shuffle(len(joined), func(i, j int) { joined[i], joined[j] = joined[j], joined[i] })
		for _, j := range joined {
			j.d.Leave(j.g, 0)
		}
		check(fmt.Sprintf("pass %d, left", pass))
	}
	if most == 0 {
		t.Fatal("no router held a (*,G) entry; the check would be vacuous")
	}
	t.Logf("%d groups, up to %d (*,G) entries at once", len(groups), most)
	for _, wg := range w.groups {
		sender := domains[0].ID
		for i := 1; slices.Contains(wg.members, sender); i++ {
			sender = domains[i].ID // off the tree's member set: §3's non-member sender
		}
		assertExactlyOnce(t, w.net, wg.addr, wg.members, sender)
	}
}
