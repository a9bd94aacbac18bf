package stats

import "sort"

// less is the order of sort.Float64s: ascending, with NaN before every
// number. Values neither less than the other (equal values, ±0, two NaNs)
// are interchangeable in every result this package computes.
func less(a, b float64) bool { return a < b || (a != a && b == b) }

// selectK reorders x[lo:hi] so that x[k] holds the value a sort of x[lo:hi]
// would put there, everything in x[lo:k] is no greater and everything in
// x[k+1:hi] no smaller (lo <= k < hi).
//
// It is quickselect with a median-of-three pivot, expected O(hi-lo). A bad
// pivot sequence (organ-pipe input, say) could drive it quadratic, so the
// elements it partitions are budgeted: past a few passes over the range it
// sorts what remains instead, which caps the worst case at O(n log n).
func selectK(x []float64, lo, hi, k int) {
	budget := 8 * (hi - lo)
	for {
		switch {
		case k == lo:
			swapMin(x, lo, hi)
			return
		case k == hi-1:
			swapMax(x, lo, hi)
			return
		case budget < 0:
			sort.Float64s(x[lo:hi])
			return
		}
		budget -= hi - lo
		j := partition(x, lo, hi)
		switch {
		case k < j:
			hi = j
		case k > j:
			lo = j + 1
		default:
			return
		}
	}
}

// partition splits x[lo:hi] (at least three elements) around the median of
// its first, middle and last elements, returning the pivot's final index j:
// x[lo:j] holds no element greater than x[j] and x[j+1:hi] none smaller.
// Elements equal to the pivot stop both scans, so runs of duplicates split
// evenly instead of piling up on one side.
func partition(x []float64, lo, hi int) int {
	m, last := lo+(hi-lo)/2, hi-1
	if less(x[m], x[lo]) {
		x[m], x[lo] = x[lo], x[m]
	}
	if less(x[last], x[m]) {
		x[last], x[m] = x[m], x[last]
		if less(x[m], x[lo]) {
			x[m], x[lo] = x[lo], x[m]
		}
	}
	x[lo], x[m] = x[m], x[lo]
	v := x[lo]
	i, j := lo, hi
	for {
		for i++; i < last && less(x[i], v); i++ {
		}
		for j--; j > lo && less(v, x[j]); j-- {
		}
		if i >= j {
			break
		}
		x[i], x[j] = x[j], x[i]
	}
	x[lo], x[j] = x[j], x[lo]
	return j
}

// swapMin moves the least element of x[lo:hi] to x[lo].
func swapMin(x []float64, lo, hi int) {
	m := lo
	for i := lo + 1; i < hi; i++ {
		if less(x[i], x[m]) {
			m = i
		}
	}
	x[lo], x[m] = x[m], x[lo]
}

// swapMax moves the greatest element of x[lo:hi] to x[hi-1].
func swapMax(x []float64, lo, hi int) {
	m := lo
	for i := lo + 1; i < hi; i++ {
		if less(x[m], x[i]) {
			m = i
		}
	}
	x[hi-1], x[m] = x[m], x[hi-1]
}
