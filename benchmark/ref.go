package main

import (
	"math/rand"
	"time"
)

// The reference kernel is a fixed piece of work in the benchmark's own
// code whose speed moves with the host's the way the stack's does: it
// walks a few megabytes of Go maps and small heap objects and allocates a
// frame per hop. On a shared host the time of identical memory-bound work
// drifts by 10–30 % over minutes (neighbours' cache and memory traffic);
// timing the kernel next to every phase and dividing by it takes that
// drift out of the reported times. It calls nothing in the program under
// test, so a change to the program cannot move it. Changing the kernel
// re-bases every timing metric: leave it alone.
type refKernel struct {
	routers []*refRouter
	walks   int // packet walks per run
	x       uint32
	keep    [][]byte
	times   []float64 // ns of every walk-through sampled
}

type refRouter struct {
	rib   map[uint32]*refRoute
	state map[uint32][]uint32
}

type refRoute struct {
	path []uint32
	next uint32
}

const (
	// refWalks is the packet walks per kernel walk-through on a full-size
	// run, and refNominal what one takes on the reference box when the
	// host is quiet; times at reference speed are what the stack would take
	// then.
	refWalks   = 40
	refNominal = 7700 * time.Microsecond
)

func newRefKernel(walks int) *refKernel {
	r := rand.New(rand.NewSource(worldSeed))
	k := &refKernel{walks: walks, x: 12345}
	for i := 0; i < 200; i++ {
		rt := &refRouter{rib: map[uint32]*refRoute{}, state: map[uint32][]uint32{}}
		for p := 0; p < 400; p++ {
			rt.rib[r.Uint32()] = &refRoute{path: make([]uint32, 1+r.Intn(6)), next: r.Uint32()}
		}
		for g := uint32(0); g < 64; g++ {
			rt.state[g] = make([]uint32, 1+r.Intn(4))
		}
		k.routers = append(k.routers, rt)
	}
	return k
}

// sample goes through the kernel three times and keeps the times. The
// caller collects garbage first (every phase starts that way), so that no
// collection the program's allocations set off runs beside the kernel: one
// doubles its time.
func (k *refKernel) sample() {
	for i := 0; i < 3; i++ {
		k.times = append(k.times, float64(k.run()))
	}
}

// slowdown returns how much slower than refNominal the median walk-through
// of the run was: the factor the run's times are divided by. A median over
// the hundred samples of a run is steady where a single one is not
// (±20 %), and the host's speed moves slower than a run is long.
func (k *refKernel) slowdown() float64 {
	return median(k.times) / float64(refNominal)
}

// run does k.walks packet walks — 50 routers each: scan the router's RIB
// map, look up group state, allocate a frame — and returns the time taken.
func (k *refKernel) run() time.Duration {
	t := now()
	for i := 0; i < k.walks; i++ {
		for h := 0; h < 50; h++ {
			k.x = k.x*1664525 + 1013904223
			rt := k.routers[k.x>>8%uint32(len(k.routers))]
			best := uint32(0)
			for p, v := range rt.rib {
				if p&0xff == k.x&0xff && v.next > best {
					best = v.next
				}
			}
			frame := make([]byte, 96+len(rt.state[k.x>>16%64]))
			frame[0] = byte(best)
			if h%16 == 0 {
				k.keep = append(k.keep, frame)
			}
		}
		if len(k.keep) > 64 {
			k.keep = k.keep[:0]
		}
	}
	return since(t)
}
