// Package harness runs N independent, seeded benchmark trials across a
// bounded worker pool. It has one caller, internal/bench: a suite's trials
// are the only level at which this repository fans work out.
//
// The paper's evaluation (§4.3.3 Figure 2, §5.4 Figure 4) and this
// repository's additions (the chaos sweep, the churn workload) are all
// sweeps of independent seeded trials. The harness gives every trial a
// seed derived purely from (suite seed, trial index) with a splitmix64
// mix, so a suite's results are bit-identical regardless of the worker
// count or the order the scheduler happens to run trials in —
// parallelism changes wall time, never results.
//
// Per-trial wall time and approximate allocation / peak-heap figures are
// sampled around each trial with runtime.ReadMemStats. Those are the only
// non-deterministic outputs and are reported separately so callers (the
// internal/bench result model) can exclude them from determinism
// comparisons. ReadMemStats figures are process-global: with parallel > 1
// the memory attribution of concurrently running trials overlaps, so treat
// AllocBytes/PeakHeapBytes as indicative, not exact, in parallel runs.
//
// This package deliberately uses time.Now for wall-clock measurement: a
// benchmark's timing is real time by definition. Everything that feeds
// simulation logic seeds its own generators from the per-trial seed.
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Result is one completed trial. Value is deterministic for a given
// (suite seed, index); the remaining fields are timing measurements.
type Result[T any] struct {
	Index int
	Value T

	// Wall is the trial's wall-clock duration.
	Wall time.Duration
	// AllocBytes is the growth of runtime.MemStats.TotalAlloc across the
	// trial (approximate when trials run concurrently).
	AllocBytes uint64
	// PeakHeapBytes is the larger of HeapInuse sampled before and after
	// the trial (a cheap stand-in for true in-trial peak).
	PeakHeapBytes uint64
}

// TrialSeed derives the seed for one trial from the suite seed using a
// splitmix64 mix, so neighboring trial indices get uncorrelated streams
// and trial k's seed never depends on how many workers ran before it.
func TrialSeed(suiteSeed int64, trial int) int64 {
	z := uint64(suiteSeed) + 0x9e3779b97f4a7c15*(uint64(trial)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Run executes trials independent trials of fn across a pool of parallel
// workers (<= 0: GOMAXPROCS) and returns their results ordered by trial
// index. fn gets the trial's index and its TrialSeed(seed, index), and must
// draw randomness only from generators it seeds from that to stay
// deterministic under parallelism. On the first trial error the pool stops
// dispatching new trials, waits for in-flight trials, and returns the
// error of the lowest-indexed trial that failed (so the reported failure
// does not depend on scheduling).
func Run[T any](trials, parallel int, seed int64, fn func(index int, seed int64) (T, error)) ([]Result[T], error) {
	if fn == nil {
		return nil, errors.New("harness: trial func is nil")
	}
	if trials < 0 {
		return nil, fmt.Errorf("harness: trials = %d, want >= 0", trials)
	}
	if trials == 0 {
		return nil, nil
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > trials {
		parallel = trials
	}

	results := make([]Result[T], trials)
	var (
		mu          sync.Mutex
		firstErr    error
		firstErrIdx = -1
		stop        atomic.Bool
	)

	idxCh := make(chan int)
	go func() {
		defer close(idxCh)
		for i := 0; i < trials; i++ {
			if stop.Load() {
				return
			}
			idxCh <- i
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				res, err := runTrial(i, TrialSeed(seed, i), fn)
				mu.Lock()
				if err != nil {
					if firstErrIdx < 0 || i < firstErrIdx {
						firstErr, firstErrIdx = err, i
					}
					stop.Store(true)
				} else {
					results[i] = res
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if firstErrIdx >= 0 {
		return nil, fmt.Errorf("harness: trial %d: %w", firstErrIdx, firstErr)
	}
	return results, nil
}

// runTrial runs one trial with timing and memory sampling around it.
func runTrial[T any](i int, seed int64, fn func(int, int64) (T, error)) (Result[T], error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	v, err := fn(i, seed)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return Result[T]{}, err
	}
	peak := before.HeapInuse
	if after.HeapInuse > peak {
		peak = after.HeapInuse
	}
	return Result[T]{
		Index:         i,
		Value:         v,
		Wall:          wall,
		AllocBytes:    after.TotalAlloc - before.TotalAlloc,
		PeakHeapBytes: peak,
	}, nil
}
