package main

import (
	"math"
	"sort"
	"time"

	"mascbgmp/internal/simclock"
)

// now is the only wall-clock read in the benchmark. simclock.Real wraps
// time.Now, whose readings carry the monotonic clock, so differences are
// immune to wall-clock steps.
func now() time.Time { return simclock.Real{}.Now() }

func since(t time.Time) time.Duration { return now().Sub(t) }

// median returns the middle value (mean of the middle two for even n);
// NaN for no samples. Medians, never means or minima, summarize rounds.
func median(vs []float64) float64 { return quantile(vs, 0.5) }

// quantile returns the q-quantile with linear interpolation between order
// statistics (the "inclusive" method: q=0 is the minimum, q=1 the maximum).
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartileSpread is (Q3-Q1)/median with quartiles as Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method), which is how the driver judges a metric's steadiness.
func quartileSpread(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := func(i int) float64 { // i-th of 4 cut points, exclusive method
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (cut(3) - cut(1)) / median(vs)
}
