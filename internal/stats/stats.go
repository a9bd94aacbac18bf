// Package stats provides the small statistics toolkit used by the experiment
// harness: sample summaries, 95% confidence intervals (Student-t), and series
// containers for figure data. The paper reports every simulation result with
// 95% confidence intervals (Section VI-A).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sample accumulates scalar observations.
type Sample struct {
	xs []float64
}

// NewSample returns a Sample pre-sized for n observations.
func NewSample(n int) *Sample {
	return &Sample{xs: make([]float64, 0, n)}
}

// Add records one observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the sample mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Variance returns the unbiased sample variance (n-1 denominator).
func (s *Sample) Variance() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	sum := 0.0
	for _, x := range s.xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(n-1)
}

// StdDev returns the sample standard deviation.
func (s *Sample) StdDev() float64 { return math.Sqrt(s.Variance()) }

// Min returns the smallest observation, or +Inf for an empty sample.
func (s *Sample) Min() float64 {
	min := math.Inf(1)
	for _, x := range s.xs {
		if x < min {
			min = x
		}
	}
	return min
}

// Max returns the largest observation, or -Inf for an empty sample.
func (s *Sample) Max() float64 {
	max := math.Inf(-1)
	for _, x := range s.xs {
		if x > max {
			max = x
		}
	}
	return max
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. It returns 0 for an empty sample.
func (s *Sample) Percentile(p float64) float64 { return s.Percentiles(p)[0] }

// Percentiles returns Percentile(p) for each p in ps, in the order given.
// The observations are ordered as sort.Float64s orders them (NaN first), but
// the sample is copied once and only the order statistics the ranks need
// are placed, by selection rather than a full sort.
func (s *Sample) Percentiles(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	n := len(s.xs)
	if n == 0 {
		return out
	}
	// Each percentile reads the order statistics at lo and hi of its rank.
	ranks := make([]int, 0, 2*len(ps))
	for _, p := range ps {
		lo, hi, _ := rank(p, n)
		ranks = append(ranks, lo, hi)
	}
	sort.Ints(ranks)
	x := make([]float64, n)
	copy(x, s.xs)
	// Place the ranks in ascending order: once x[k] holds order statistic
	// k, everything after it is no smaller, so the next rank is selected
	// from x[k+1:] alone.
	from := 0
	for _, k := range ranks {
		if k >= from {
			selectK(x, from, n, k)
			from = k + 1
		}
	}
	for i, p := range ps {
		lo, hi, frac := rank(p, n)
		if lo == hi {
			out[i] = x[lo]
		} else {
			out[i] = x[lo]*(1-frac) + x[hi]*frac
		}
	}
	return out
}

// rank locates percentile p of n sorted observations: the order statistics
// lo <= hi it lies between and the interpolation weight of hi. Percentiles
// outside [0, 100] clamp to the extremes.
func rank(p float64, n int) (lo, hi int, frac float64) {
	if p <= 0 {
		return 0, 0, 0
	}
	if p >= 100 {
		return n - 1, n - 1, 0
	}
	r := p / 100 * float64(n-1)
	lo, hi = int(math.Floor(r)), int(math.Ceil(r))
	return lo, hi, r - float64(lo)
}

// CI95 returns the half-width of the 95% confidence interval for the mean
// using the Student-t distribution. It returns 0 when fewer than two
// observations are available.
func (s *Sample) CI95() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	return tCritical95(n-1) * s.StdDev() / math.Sqrt(float64(n))
}

// Summary is a value-type snapshot of a sample.
type Summary struct {
	N    int
	Mean float64
	Std  float64
	CI95 float64
	Min  float64
	Max  float64
}

// Summarize returns a snapshot of the sample's statistics.
func (s *Sample) Summarize() Summary {
	return Summary{
		N:    s.N(),
		Mean: s.Mean(),
		Std:  s.StdDev(),
		CI95: s.CI95(),
		Min:  s.Min(),
		Max:  s.Max(),
	}
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("mean=%.3f ±%.3f (95%% CI, n=%d, sd=%.3f)", s.Mean, s.CI95, s.N, s.Std)
}

// tCritical95 returns the two-sided 0.05 critical value of the Student-t
// distribution with df degrees of freedom. Values for small df are tabulated;
// larger df fall back to an asymptotic expansion around the normal quantile.
func tCritical95(df int) float64 {
	table := []float64{
		// df: 1 .. 30
		12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
		2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
		2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
	}
	switch {
	case df <= 0:
		return math.NaN()
	case df <= len(table):
		return table[df-1]
	case df <= 40:
		return 2.021
	case df <= 60:
		return 2.000
	case df <= 120:
		return 1.980
	default:
		return 1.960
	}
}
