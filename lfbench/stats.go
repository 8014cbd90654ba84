package main

import (
	"math"
	"sort"
	"time"
)

// samples holds exact per-operation measurements. Percentiles are order
// statistics over every sample, never bucketed estimates: a bucketed
// median moves by a whole bucket between identical runs.
type samples []float64

func (s *samples) add(v float64) { *s = append(*s, v) }

func (s *samples) addDur(d time.Duration) { s.add(float64(d.Nanoseconds()) / 1e3) }

func (s samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// median returns the middle sample (the mean of the two middle ones for an
// even count), or NaN when there are none.
func (s samples) median() float64 {
	c := s.sorted()
	n := len(c)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return c[n/2]
	default:
		return (c[n/2-1] + c[n/2]) / 2
	}
}

// p99 returns the nearest-rank 99th percentile and whether it is a real
// tail: at least ten samples must lie beyond it.
func (s samples) p99() (float64, bool) {
	c := s.sorted()
	n := len(c)
	rank := (99*n + 99) / 100 // ceil(0.99 n) in exact integers
	if rank < 1 || n-rank < 10 {
		return 0, false
	}
	return c[rank-1], true
}

// quartiles returns the first quartile, median and third quartile with the
// same interpolation as Python's statistics.quantiles(values, n=4)
// (the default "exclusive" method), so a spread printed here matches one
// computed from the printed values.
func quartiles(vals []float64) (q1, med, q3 float64) {
	c := append([]float64(nil), vals...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return c[0], c[0], c[0]
	}
	at := func(k int) float64 {
		// statistics.quantiles, method="exclusive": m = n+1, j clamped
		// to [1, n-1] before the exact integer interpolation weights.
		j := max(1, min(k*(n+1)/4, n-1))
		delta := k*(n+1) - j*4
		return (c[j-1]*float64(4-delta) + c[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
