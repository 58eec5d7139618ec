// Conference: multi-sender teleconference with source-specific branches —
// the paper's Figure 3(b) scenario.
//
// Domain F is multihomed: its shared-tree connection runs through F1 (via
// B), but its shortest path to sources in domain D runs through F2 (via
// A). F runs DVMRP inside, whose strict RPF check drops packets from D
// that enter at F1 — so F1 must unicast-encapsulate them to F2. With
// source-specific branches enabled, F2 then joins toward the source;
// after the first native packet arrives it source-prunes the shared-tree
// copies and the encapsulation stops (§5.3).
//
// The example prints the (S,G) state that appears at F2 and shows that
// steady-state delivery is exactly one copy per packet per domain, for
// both speakers of the conference.
//
// Run with: go run ./examples/conference
package main

import (
	"fmt"
	"log"
	"time"

	"mascbgmp"
)

func main() {
	clk := mascbgmp.NewSimClock(time.Date(1998, 9, 1, 0, 0, 0, 0, time.UTC))
	// The paper's Fig 1/3 topology (domains A..H, F multihomed to B and A).
	net, err := mascbgmp.PaperWorld().Build(mascbgmp.Config{
		Clock:          clk,
		Seed:           42,
		Synchronous:    true,
		SourceBranches: true, // §5.3 on
	})
	if err != nil {
		panic(err)
	}

	// Address allocation: A from 224/4, then B (the conference organizer's
	// domain) within A.
	net.Domain(1).MASC().RequestSpace(1<<16, 90*24*time.Hour)
	clk.RunFor(49 * time.Hour)
	net.Domain(2).MASC().RequestSpace(256, 30*24*time.Hour)
	clk.RunFor(49 * time.Hour)

	lease, err := net.Domain(2).NewGroup(6 * time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("conference group:", lease.Addr, "(organizer in B — root domain)")

	// Conference members: B, C, D, F, H.
	members := []mascbgmp.DomainID{2, 3, 4, 6, 8}
	for _, id := range members {
		net.Domain(id).Join(lease.Addr, 1)
	}

	// Speaker 1 in domain D talks. The first packet reaches F
	// encapsulated; F2 builds a source-specific branch toward D.
	speakerD := net.Domain(4).HostAddr(1)
	net.Domain(4).Send(lease.Addr, speakerD, "D: hello everyone", 1)

	f2 := net.Router(62)
	if parent, _, ok := f2.BGMP().SourceEntry(speakerD, lease.Addr); ok {
		fmt.Printf("F2 built (S,G) branch for speaker in D: parent target %v (toward the source via A)\n", parent)
	} else {
		fmt.Println("F2 has no (S,G) state — branches disabled?")
	}

	// Steady state: every member gets exactly one copy per utterance.
	clear := func() {
		for _, d := range net.Domains() {
			d.ClearReceived()
		}
	}
	clear()
	net.Domain(4).Send(lease.Addr, speakerD, "D: can you hear me?", 1)
	clear() // discard the switchover packet
	net.Domain(4).Send(lease.Addr, speakerD, "D: steady state now", 1)
	fmt.Print("speaker D heard in: ")
	for _, id := range members {
		if id == 4 {
			continue
		}
		fmt.Printf("%c(x%d) ", 'A'-1+rune(id), len(net.Domain(id).Received()))
	}
	fmt.Println()

	// Speaker 2 in domain H answers — data flows the other way along the
	// same bidirectional tree, no RP detour.
	clear()
	speakerH := net.Domain(8).HostAddr(1)
	net.Domain(8).Send(lease.Addr, speakerH, "H: loud and clear", 1)
	fmt.Print("speaker H heard in: ")
	for _, id := range members {
		if id == 8 {
			continue
		}
		fmt.Printf("%c(x%d) ", 'A'-1+rune(id), len(net.Domain(id).Received()))
	}
	fmt.Println()

	// A non-member in E interjects (IP model: senders need not join).
	// E's first packet triggers F's branch switchover for this new
	// source (one transition duplicate possible); steady state follows.
	net.Domain(5).Send(lease.Addr, net.Domain(5).HostAddr(1), "E: (mic check)", 1)
	clear()
	net.Domain(5).Send(lease.Addr, net.Domain(5).HostAddr(1), "E: lurker question", 1)
	fmt.Print("lurker E heard in:  ")
	for _, id := range members {
		fmt.Printf("%c(x%d) ", 'A'-1+rune(id), len(net.Domain(id).Received()))
	}
	fmt.Println()
}
