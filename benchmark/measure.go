package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
)

// opClass is one kind of operation the benchmark issues and accounts for.
type opClass int

const (
	opJoin opClass = iota
	opLeave
	opSend
	opSendLarge
	opFlap
	numClasses
)

var classNames = [numClasses]string{"join", "leave", "send", "send_large", "flap"}

// perOp holds one value per op class.
type perOp [numClasses]float64

// memDelta is what one phase of the count round allocated.
type memDelta struct{ mallocs, bytes float64 }

func readMem() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// runner replays a script against a stack, one round at a time, from one
// goroutine in a closed loop: the next op is issued when the last returned.
type runner struct {
	st *stack
	sc *script
	tr *tracer
	// ref, when set, is sampled before every timed phase.
	ref *refKernel
	// only, when set, restricts rounds to the phases it marks.
	only *[numClasses]bool
	// seen accumulates, per phase, what the stack's counters recorded
	// while it ran; filled only when the stack has an observer.
	seen [numClasses]counters

	ops, failed [numClasses]int
	// problems keeps the first few verification failures for the report.
	problems []string
}

func (r *runner) fail(c opClass, n int, format string, args ...any) {
	if n > 0 {
		r.failed[c] += n
		if len(r.problems) < 8 {
			r.problems = append(r.problems, classNames[c]+": "+fmt.Sprintf(format, args...))
		}
	}
}

// pieces holds the time in nanoseconds of every piece of one round, per op
// class and in script order: a pass's joins, a pass's leaves, one packet,
// one flap.
type pieces [numClasses][]float64

// round replays the five phase scripts once and returns the time of every
// piece, as measured. Before every phase, outside the timed window, the
// delivery log is cleared, because it is otherwise unbounded, garbage is
// collected, and the reference kernel, if the runner has one, is sampled;
// the collector is then held off until the phase ends, because whether and
// where a collection lands in a phase is chance, and how long it takes
// depends on the host's other CPU (allocation is gated by its own counts).
// With mem set (the untimed count round) each phase runs between two
// runtime.ReadMemStats calls, which timed rounds never make.
func (r *runner) round(name string, mem *[numClasses]memDelta) pieces {
	defer r.tr.begin(name)()
	sc := r.sc
	var out pieces
	for c, n := range [numClasses]int{len(sc.passes), len(sc.passes), len(sc.sends), len(sc.largeSends), len(sc.flaps)} {
		out[c] = make([]float64, n)
	}

	phase := func(c opClass, ops int, body func()) bool {
		if r.only != nil && !r.only[c] {
			return false
		}
		r.st.clearReceived()
		runtime.GC()
		if r.ref != nil && mem == nil {
			r.ref.sample()
		}
		defer r.tr.begin(classNames[c])()
		if r.st.ob != nil {
			before := r.st.counters()
			defer func() { r.seen[c].add(r.st.counters().sub(before)) }()
		}
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		if mem == nil {
			body()
			return true
		}
		m0, b0 := readMem()
		body()
		m1, b1 := readMem()
		mem[c] = memDelta{float64(m1-m0) / float64(ops), float64(b1-b0) / float64(ops)}
		return true
	}

	// Churn: joins and leaves are timed as separate segments of each pass;
	// the allocation bracket covers the pair and is filed under join.
	phase(opJoin, sc.joinsPerRound(), func() {
		for i, p := range sc.passes {
			t := now()
			for _, q := range p.joins {
				r.st.join(q)
			}
			mid := now()
			for _, q := range p.leaves {
				r.st.leave(q)
			}
			end := now()
			out[opJoin][i] = float64(mid.Sub(t))
			out[opLeave][i] = float64(end.Sub(mid))
			r.ops[opJoin] += len(p.joins)
			r.ops[opLeave] += len(p.leaves)
			base := r.st.baseline
			if b, o := r.st.membershipState(); b != base.bgmpEntries || o != base.overlayEntries {
				r.fail(opLeave, len(p.leaves), "after a pass: %d bgmp / %d overlay entries, baseline %d / %d",
					b, o, base.bgmpEntries, base.overlayEntries)
			}
		}
	})

	sendPhase := func(c opClass, sends []pair, payload string) {
		if phase(c, len(sends), func() {
			t := now()
			for i, p := range sends {
				r.st.send(p, payload)
				u := now()
				out[c][i], t = float64(u.Sub(t)), u
			}
			r.ops[c] += len(sends)
		}) {
			r.fail(c, min(r.st.checkDeliveries(sends), len(sends)),
				"delivery counts differ from one copy per member domain")
		}
	}
	sendPhase(opSend, sc.sends, sc.payload)
	sendPhase(opSendLarge, sc.largeSends, sc.largePayload)

	if phase(opFlap, len(sc.flaps), func() {
		t := now()
		for i, l := range sc.flaps {
			if err := r.st.flap(l); err != nil {
				r.fail(opFlap, 1, "link %d-%d: %v", l.a, l.b, err)
			}
			u := now()
			out[opFlap][i], t = float64(u.Sub(t)), u
		}
		r.ops[opFlap] += len(sc.flaps)
	}) {
		if got := r.st.state(); got != r.st.baseline {
			r.fail(opFlap, len(sc.flaps), "after flaps: state %+v, baseline %+v", got, r.st.baseline)
		}
	}
	return out
}

// opsPerRound is the number of ops of each class in one round.
func (sc *script) opsPerRound() [numClasses]int {
	joins := sc.joinsPerRound()
	return [numClasses]int{joins, joins, len(sc.sends), len(sc.largeSends), len(sc.flaps)}
}

// perOp is one round's nanoseconds per op of each class.
func (p pieces) perOp(ops [numClasses]int) perOp {
	var out perOp
	for c, ts := range p {
		for _, t := range ts {
			out[c] += t
		}
		out[c] /= float64(ops[c])
	}
	return out
}

// typical reduces rounds to nanoseconds per op of each class: the median
// over the rounds of every piece, summed, over the ops. A round replays the
// same pieces in the same order, so a hiccup of the host spoils one piece
// of one round and not the round.
func typical(rounds []pieces, ops [numClasses]int) perOp {
	var out perOp
	across := make([]float64, len(rounds))
	for c := range out {
		for i := range rounds[0][c] {
			for k, r := range rounds {
				across[k] = r[c][i]
			}
			out[c] += median(across)
		}
		out[c] /= float64(ops[c])
	}
	return out
}

// tails replays the send and churn scripts once more, timing every op on
// its own, and returns the 99th percentiles in nanoseconds. Informational:
// in a closed single-threaded loop a tail shows collector placement and
// noisy neighbours, not queueing.
func (r *runner) tails() (send99, join99 float64) {
	defer r.tr.begin("tails")()
	r.st.clearReceived()
	var sends, joins []float64
	for _, p := range r.sc.sends {
		t := now()
		r.st.send(p, r.sc.payload)
		sends = append(sends, float64(since(t).Nanoseconds()))
	}
	r.st.clearReceived()
	for _, p := range r.sc.passes {
		for _, q := range p.joins {
			t := now()
			r.st.join(q)
			joins = append(joins, float64(since(t).Nanoseconds()))
		}
		for _, q := range p.leaves {
			r.st.leave(q)
		}
	}
	return quantile(sends, 0.99), quantile(joins, 0.99)
}
