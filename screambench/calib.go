package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// The machine the benchmark is recorded on is a VM that shares its host:
// over minutes, the same code's CPU time moves by up to 2x with what other
// tenants do to the shared caches and memory, with hardly any steal time
// reported. Process CPU time alone cannot be steady across that. Each run
// therefore times a fixed reference task before each of its rounds and
// scales the round's CPU times by calibRefMS / (the median of the
// reference times around it). The times then read as they would at one
// fixed machine speed,
// and a change in the program still moves them one for one, since the
// reference task calls none of it.

// calibRefMS is the speed every scaled time is expressed at: about the
// reference task's median CPU time on the 2-vCPU x86-64 VM the benchmark
// was first recorded on.
const calibRefMS = 60.0

// calibSink keeps the reference task's results alive.
var calibSink float64

// calibrate runs the reference task and returns its process CPU time. It
// makes the memory traffic a simulation run makes: sorting and map
// updates within the core's caches, the same over a 1 MiB array that
// spills out of them, and a stream of small pointer-bearing allocations
// that keeps the collector busy.
func calibrate() time.Duration {
	c0 := cpuNow()
	rng := rand.New(rand.NewSource(1))
	for rep := 0; rep < 4; rep++ {
		sortAndCount(rng, 1<<14, 4096)
	}
	sortAndCount(rng, 1<<17, 1<<16)
	var head *calibNode
	for i := 0; i < 100_000; i++ {
		head = &calibNode{next: head}
		if i%1000 == 0 {
			head = nil
		}
	}
	calibSink += float64(len(head.v))
	return cpuNow() - c0
}

type calibNode struct {
	next *calibNode
	v    [6]int
}

// sortAndCount sorts n random floats and folds them into a map of the
// given number of buckets.
func sortAndCount(rng *rand.Rand, n, buckets int) {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	sort.Float64s(xs)
	m := make(map[int]float64, buckets/4)
	for i, x := range xs {
		m[int(x*float64(buckets))] += math.Log1p(x) * float64(i&7)
	}
	for _, v := range m {
		calibSink += math.Sqrt(v)
	}
}

// speedGauge collects the reference task's times over a run.
type speedGauge struct{ ms []float64 }

// sample times the reference task once, after a collection so that no
// collector work left by the program lands in it.
func (g *speedGauge) sample() {
	runtime.GC()
	g.ms = append(g.ms, float64(calibrate())/1e6)
}

// calibWindow is how many reference times on each side of a unit its
// factor takes the median of: enough to damp the noise of single times,
// few enough to follow the machine's speed through a run.
const calibWindow = 2

// factor converts the CPU times of unit i — the round, block, batch or
// call timed right after reference time i — to the reference speed.
func (g *speedGauge) factor(i int) float64 {
	lo, hi := max(0, i-calibWindow), min(len(g.ms), i+calibWindow+1)
	return calibRefMS / median(g.ms[lo:hi])
}

// scaleEach scales xs, whose j-th value belongs to unit j/per.
func (g *speedGauge) scaleEach(xs []float64, per int) []float64 {
	out := make([]float64, len(xs))
	for j, x := range xs {
		out[j] = x * g.factor(j/per)
	}
	return out
}
