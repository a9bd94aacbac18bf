package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refPercentile is the sort-based percentile the selection code replaced: a
// full sort.Float64s of a copy, then closest-rank interpolation.
func refPercentile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// same compares results the way the order does: NaN matches NaN, and ±0
// (which sort.Float64s leaves in either order) compare equal.
func same(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// checkAgainstRef fails t unless Percentiles(ps...) and each Percentile(p)
// over xs equal the sort-based reference, and the sample is left untouched.
func checkAgainstRef(t *testing.T, xs []float64, ps []float64) {
	t.Helper()
	s := NewSample(len(xs))
	for _, x := range xs {
		s.Add(x)
	}
	got := s.Percentiles(ps...)
	for i, p := range ps {
		want := refPercentile(xs, p)
		if !same(got[i], want) {
			t.Fatalf("Percentiles(%v)[%d] over %v = %v, sort reference %v", ps, i, xs, got[i], want)
		}
		if one := s.Percentile(p); !same(one, want) {
			t.Fatalf("Percentile(%v) over %v = %v, sort reference %v", p, xs, one, want)
		}
	}
	for i, x := range xs {
		if !same(s.xs[i], x) || math.Signbit(s.xs[i]) != math.Signbit(x) {
			t.Fatalf("Percentiles reordered the sample: xs[%d] = %v, was %v", i, s.xs[i], x)
		}
	}
}

func TestPercentilesMatchSortReference(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	ps := []float64{0, 50, 95, 100}
	fixed := [][]float64{
		{7},
		{3, 1},
		{1, 3},
		{2, 2},
		{nan},
		{nan, 1},
		{1, nan},
		{-inf, inf},
		{inf, -inf, 0},
		{inf, inf, 1},
		{5, 5, 5, 5, 5},
		{1, nan, -inf, 2, nan, inf, 0, 2, 2},
		{math.Copysign(0, -1), 0, math.Copysign(0, -1), 0},
	}
	for _, xs := range fixed {
		checkAgainstRef(t, xs, ps)
	}
	rng := rand.New(rand.NewSource(11))
	pool := []float64{-inf, inf, nan, 0, 1, 2, 3}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(60)
		xs := make([]float64, n)
		for i := range xs {
			switch rng.Intn(3) {
			case 0: // heavy duplication and the special values
				xs[i] = pool[rng.Intn(len(pool))]
			default:
				xs[i] = math.Round(rng.NormFloat64()*20) / 4
			}
		}
		k := 1 + rng.Intn(5)
		qs := make([]float64, k)
		for i := range qs {
			qs[i] = ps[rng.Intn(len(ps))]
			if rng.Intn(2) == 0 {
				qs[i] = rng.Float64() * 100
			}
		}
		checkAgainstRef(t, xs, qs)
	}
}

func TestPercentilesEmptyAndOrder(t *testing.T) {
	var s Sample
	if got := s.Percentiles(50, 95); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Fatalf("empty sample Percentiles = %v, want [0 0]", got)
	}
	for _, x := range []float64{40, 10, 30, 20, 50} {
		s.Add(x)
	}
	got := s.Percentiles(100, 0, 50, 50)
	if want := []float64{50, 10, 30, 30}; len(got) != 4 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] || got[3] != want[3] {
		t.Fatalf("Percentiles(100, 0, 50, 50) = %v, want %v (in request order)", got, want)
	}
}

// TestPercentilesAdversarialInputs: shapes that defeat a median-of-three
// quickselect or a partition that mishandles duplicates must still finish
// in sort time, by the budget falling back to sorting the remaining range.
func TestPercentilesAdversarialInputs(t *testing.T) {
	const n = 100000
	shapes := map[string]func(i int) float64{
		"sorted":     func(i int) float64 { return float64(i) },
		"reversed":   func(i int) float64 { return float64(n - i) },
		"all-equal":  func(i int) float64 { return 1 },
		"organ-pipe": func(i int) float64 { return float64(min(i, n-1-i)) },
	}
	ps := []float64{0, 50, 95, 99.9, 100}
	for name, f := range shapes {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		s := &Sample{xs: xs}
		start := time.Now()
		got := s.Percentiles(ps...)
		sel := time.Since(start)

		sorted := append([]float64(nil), xs...)
		start = time.Now()
		sort.Float64s(sorted)
		srt := time.Since(start)
		for i, p := range ps {
			if want := refPercentile(xs, p); !same(got[i], want) {
				t.Errorf("%s: Percentile(%v) = %v, want %v", name, p, got[i], want)
			}
		}
		t.Logf("%s: selection %v, sort %v", name, sel, srt)
		// A quadratic selection on 1e5 values is thousands of sorts.
		if limit := 20*srt + 50*time.Millisecond; sel > limit {
			t.Errorf("%s: selection took %v, over %v (sort of the same input: %v)", name, sel, limit, srt)
		}
	}
}

// FuzzPercentiles checks selection against the sort reference on arbitrary
// float64 bit patterns (NaN payloads, ±Inf, ±0, subnormals included).
func FuzzPercentiles(f *testing.F) {
	enc := func(xs ...float64) []byte {
		b := make([]byte, 0, 8*len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(enc(1), uint8(50), uint8(95))
	f.Add(enc(2, 1), uint8(0), uint8(100))
	f.Add(enc(math.NaN(), math.Inf(1), math.Inf(-1), 0, 0), uint8(50), uint8(95))
	f.Add(enc(3, 3, 3, 1, 1, 2), uint8(33), uint8(66))
	f.Fuzz(func(t *testing.T, data []byte, p1, p2 uint8) {
		xs := make([]float64, 0, len(data)/8)
		for len(data) >= 8 {
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		if len(xs) == 0 {
			return
		}
		// p1, p2 in 0..255 map onto [0, 100] with fractional steps.
		checkAgainstRef(t, xs, []float64{float64(p1) / 2.55, float64(p2) / 2.55, 50, 95})
	})
}

// BenchmarkPercentiles measures the flow driver's delay summary: P50 and
// P95 of a 20k-observation sample.
func BenchmarkPercentiles(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := NewSample(20000)
	for i := 0; i < 20000; i++ {
		s.Add(rng.ExpFloat64() * 0.01)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Percentiles(50, 95)
	}
}
