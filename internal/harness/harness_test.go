package harness

import (
	"errors"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
)

// trialValues runs a rng-consuming trial function at the given parallelism
// and returns the deterministic values in index order.
func trialValues(t *testing.T, parallel int) [][2]int64 {
	t.Helper()
	res, err := Run(24, parallel, 1998, func(index int, seed int64) ([2]int64, error) {
		// Consume a trial-dependent amount of the stream so any
		// accidental sharing between trials would show immediately.
		rng := rand.New(rand.NewSource(seed))
		sum := int64(0)
		for i := 0; i <= index%5; i++ {
			sum += rng.Int63()
		}
		return [2]int64{seed, sum}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([][2]int64, len(res))
	for i, r := range res {
		if r.Index != i {
			t.Fatalf("result %d has Index %d", i, r.Index)
		}
		vals[i] = r.Value
	}
	return vals
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	serial := trialValues(t, 1)
	for _, par := range []int{2, 4, 8, 0} {
		if got := trialValues(t, par); !reflect.DeepEqual(got, serial) {
			t.Fatalf("parallel=%d diverged from serial results", par)
		}
	}
}

func TestTrialSeedsAreDistinct(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 1000; i++ {
		s := TrialSeed(1998, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("trials %d and %d share seed %d", prev, i, s)
		}
		seen[s] = i
	}
	if TrialSeed(1998, 0) == TrialSeed(1999, 0) {
		t.Fatal("different suite seeds produced the same trial seed")
	}
}

func TestRunCancelsOnFirstError(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int32
	const trials = 1000
	_, err := Run(trials, 2, 1, func(index int, _ int64) (int, error) {
		started.Add(1)
		if index == 3 {
			return 0, boom
		}
		return index, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if n := started.Load(); n >= trials {
		t.Fatalf("all %d trials started despite early error", n)
	}
}

func TestRunReportsLowestIndexedError(t *testing.T) {
	// Every trial fails; regardless of scheduling, the reported failure
	// must be a deterministic choice among the trials that ran — and with
	// trial 0 failing, it must be trial 0 (workers start from index 0).
	wantErr := errors.New("fail-0")
	_, err := Run(8, 8, 1, func(index int, _ int64) (struct{}, error) {
		if index == 0 {
			return struct{}{}, wantErr
		}
		return struct{}{}, errors.New("fail-other")
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want the lowest-indexed trial's error", err)
	}
}

func TestRunTimingFieldsPopulated(t *testing.T) {
	res, err := Run(2, 0, 7, func(_ int, seed int64) (int, error) {
		rng := rand.New(rand.NewSource(seed))
		buf := make([]byte, 1<<20)
		for i := range buf {
			buf[i] = byte(rng.Intn(256))
		}
		return int(buf[0]), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Wall <= 0 {
			t.Fatalf("trial %d: Wall = %v", r.Index, r.Wall)
		}
		if r.AllocBytes == 0 || r.PeakHeapBytes == 0 {
			t.Fatalf("trial %d: memory accounting empty: %+v", r.Index, r)
		}
	}
}

func TestRunEdgeCases(t *testing.T) {
	noop := func(int, int64) (int, error) { return 0, nil }
	if _, err := Run[int](1, 0, 0, nil); err == nil {
		t.Fatal("nil trial func must error")
	}
	if _, err := Run(-1, 0, 0, noop); err == nil {
		t.Fatal("negative trials must error")
	}
	res, err := Run(0, 0, 0, noop)
	if err != nil || res != nil {
		t.Fatalf("zero trials: res=%v err=%v", res, err)
	}
}
