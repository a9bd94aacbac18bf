package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples a reported tail percentile must leave
// beyond it: a p95 needs at least 200 samples, a p75 at least 40.
const minBeyond = 10

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks (rank p/100·(n-1)). xs is not
// modified. It returns NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

func sortedPercentile(s []float64, p float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	f := r - float64(lo)
	return s[lo] + f*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// beyond is how many of n samples lie strictly above the p-th percentile's
// rank.
func beyond(n int, p float64) int {
	return int(math.Floor(float64(n) * (100 - p) / 100))
}

// tailOK reports whether a p-th percentile over n samples leaves at least
// minBeyond samples beyond it.
func tailOK(n int, p float64) bool { return beyond(n, p) >= minBeyond }

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method). It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	m := ld + 1
	const n = 4
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never exercises).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
