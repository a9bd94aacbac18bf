package main

import (
	"encoding/json"
	"math"
	"os"
	"sync"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{200, 95, true},
		{199, 95, false},
		{1000, 99, true},
		{999, 99, false},
		{54, 75, true},
		{39, 75, false},
		{20, 50, true},
		{19, 50, false},
	} {
		if got := tailOK(c.n, c.p); got != c.ok {
			t.Errorf("tailOK(%d, %v) = %v, want %v", c.n, c.p, got, c.ok)
		}
	}
	// The flow workloads run at least 200 ops in a 10 s run; a figure
	// suite has 18 calls, so three suites keep ten samples beyond p75.
	if !tailOK(figMinSuites*len(suite), figTail) {
		t.Errorf("%d suites (%d calls) leave fewer than ten samples beyond p%d", figMinSuites, figMinSuites*len(suite), figTail)
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := percentile(xs, 95); !near(got, 4.8) {
		t.Errorf("p95 = %v, want 4.8 (linear between ranks)", got)
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if !near(q1, 1.5) || !near(q2, 4) || !near(q3, 12) {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 4, 8, 16}); !near(got, 10.5/4) {
		t.Errorf("spread = %v", got)
	}
}

// TestOpenLoopTimesFromDue runs a schedule faster than one worker can
// serve it: later sessions start late, the lag shows it, and latency is
// counted from the due time, not the send time.
func TestOpenLoopTimesFromDue(t *testing.T) {
	origin := time.Now()
	clock := func() int64 { return int64(time.Since(origin)) }
	const service = 20 * time.Millisecond
	offsets := []int64{0, int64(time.Millisecond), int64(2 * time.Millisecond), int64(200 * time.Millisecond)}
	var mu sync.Mutex
	recs := make([]*sessionRec, len(offsets))
	dispatch(offsets, 1, clock, func(i int, due int64) {
		s := &sessionRec{idx: i, due: due, sent: clock()}
		time.Sleep(service)
		s.end = clock()
		mu.Lock()
		recs[i] = s
		mu.Unlock()
	})
	lat, lag := latencies(recs)
	// Session 2 was due 2 ms in but waited for two 20 ms sessions.
	if lag[2] < 35 {
		t.Errorf("session 2 lag %.1f ms, want >= 35 ms behind its due time", lag[2])
	}
	if lat[2] < lag[2]+float64(service)/1e6-1 {
		t.Errorf("session 2 latency %.1f ms does not include its %.1f ms lag", lat[2], lag[2])
	}
	// Session 3 was due after the backlog cleared: no lag, and the worker
	// slept until it was due rather than sending early.
	if lag[3] < 0 || lag[3] > 15 {
		t.Errorf("session 3 lag %.1f ms, want ~0", lag[3])
	}
	if recs[3].sent < recs[3].due {
		t.Error("session 3 sent before it was due")
	}
	// The schedule is a pure function of the seed.
	a, b := dueOffsets(7, 100, 1), dueOffsets(7, 100, 1)
	if len(a) == 0 || len(a) != len(b) || a[len(a)-1] != b[len(b)-1] {
		t.Error("dueOffsets is not deterministic")
	}
	if c := dueOffsets(8, 100, 1); len(c) == len(a) && c[0] == a[0] {
		t.Error("dueOffsets ignores its seed")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "run", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 1, Name: "arrival", Start: 0, End: 5, Agg: true, Count: 7},
		{ID: 6, Parent: 2, Name: "d", Start: 15, End: 20},
		{ID: 7, Parent: 2, Name: "e", Start: 15, End: 20}, // same interval as d
	}
	self := selfTimes(spans)
	// run covers: union [10,60] + [90,100] = 60, plus the 5 ns aggregate.
	if self[1] != 35 {
		t.Errorf("run self = %d, want 35", self[1])
	}
	if self[2] != 25 {
		t.Errorf("a self = %d, want 25 (30 minus the 5 ns its two identical children cover)", self[2])
	}
	// Children covering more than the parent never make self negative.
	if got := selfTimes([]Span{{ID: 1, Start: 0, End: 10}, {ID: 2, Parent: 1, Start: 0, End: 30, Agg: true}})[1]; got != 0 {
		t.Errorf("over-covered self = %d, want 0", got)
	}
	sum := summarize(spans)
	if sum["arrival"].count != 7 || sum["a"].count != 1 {
		t.Errorf("counts: arrival %d a %d", sum["arrival"].count, sum["a"].count)
	}
	if got := unionLength([][2]int64{{0, 10}, {10, 20}, {5, 8}, {30, 31}}); got != 21 {
		t.Errorf("unionLength = %d, want 21", got)
	}
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string
	}{
		{"malloc", []string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "scream/internal/des.(*Engine).At"}},
		{"des", []string{"container/heap.up", "container/heap.Push", "scream/internal/des.(*Engine).At", "scream/internal/flow.Run"}},
		{"stats", []string{"sort.insertionSort", "sort.Sort", "scream/internal/stats.(*Sample).Percentile"}},
		{"gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{"gc", []string{"runtime.memclr", "runtime.gcAssistAlloc", "runtime.mallocgc", "scream/internal/flow.Run"}},
		{"rand", []string{"math/rand.(*rngSource).Int63", "math/rand.(*Rand).ExpFloat64", "scream/internal/traffic.(*Poisson).Next"}},
		{"sched", []string{"slices.SortFunc[go.shape.struct { scream/internal/phys.Link }]", "scream/internal/sched.greedyPhysicalOrdered"}},
		{"phys", []string{"scream/internal/phys/spatial.(*Index).InterfMW"}},
		{"flow", []string{"gcWriteBarrier", "scream/internal/flow.Run.func3"}},
		{"flow", []string{"type:.eq.scream/internal/flow.packet", "scream/internal/flow.Run"}},
		{"json", []string{"encoding/json.(*encodeState).marshal", "encoding/json.Marshal", "scream/internal/serve.(*stream).send"}},
		{"http", []string{"internal/poll.(*FD).Write", "net.(*conn).Write", "net/http.(*response).Write"}},
		{"api", []string{"scream.ScenarioSpec.Validate", "main.main"}},
		{"bench", []string{"main.timedArrival.Next", "scream/internal/flow.Run"}},
		{"runtime", []string{"runtime.futex", "runtime.mcall"}},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%q) = %q, want %q", c.stack[0], got, c.want)
		}
	}
}

func TestBucketTraces(t *testing.T) {
	out := []byte(`File: screambench
Type: cpu
-----------+-------------------------------------------------------
      20ms   container/heap.down
             scream/internal/des.(*Engine).Step
-----------+-------------------------------------------------------
      10ms   math.Log (inline)
             scream/internal/mote.Run.func2
-----------+-------------------------------------------------------
    1.20s   scream/internal/core.Run
-----------+-------------------------------------------------------
`)
	b, err := bucketTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	if b["des"] != 20*time.Millisecond || b["mote"] != 10*time.Millisecond || b["core"] != 1200*time.Millisecond {
		t.Errorf("buckets = %v", b)
	}
}

func TestDigestStability(t *testing.T) {
	type rec struct {
		A int
		B float64
		C string
	}
	d1, d2 := newDigester(), newDigester()
	for _, d := range []*digester{d1, d2} {
		if err := d.add(rec{1, 0.1, "x"}); err != nil {
			t.Fatal(err)
		}
		d.add(rec{2, 1.0 / 3, "y"})
	}
	if d1.hex() != d2.hex() {
		t.Error("equal inputs give different digests")
	}
	d3 := newDigester()
	d3.add(rec{2, 1.0 / 3, "y"})
	d3.add(rec{1, 0.1, "x"})
	if d3.hex() == d1.hex() {
		t.Error("digest ignores order")
	}
	// Pinned: the encoding of a value, and so its digest, must not drift.
	d4 := newDigester()
	d4.add(rec{1, 0.1, "x"})
	if got, want := d4.hex(), digestBytes(append(make([]byte, 32), `{"A":1,"B":0.1,"C":"x"}`...)); got != want {
		t.Errorf("digest %s, want %s", got, want)
	}
	if got := digestBytes([]byte("abc")); got != "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" {
		t.Errorf("sha256(abc) = %s", got)
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric and workload tables in
// this package and BENCHMARK.json identical.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found")
	}
	var spec struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q/%q vs %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: %s %s vs %s %s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: %s %s vs %s %s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestCPUClockAdvancesWithWork(t *testing.T) {
	c0 := cpuNow()
	x := 1.0
	for cpuNow()-c0 < 5*time.Millisecond {
		x = x*1.0000001 + 1
	}
	if d := cpuNow() - c0; d < 5*time.Millisecond || d > time.Second {
		t.Errorf("5 ms of spinning read %v of CPU time (x=%v)", d, x)
	}
	// Sleeping costs no CPU time.
	c1 := cpuNow()
	time.Sleep(20 * time.Millisecond)
	if d := cpuNow() - c1; d > 10*time.Millisecond {
		t.Errorf("a 20 ms sleep read %v of CPU time", d)
	}
}

func TestSpeedGaugeScale(t *testing.T) {
	// A unit's factor is calibRefMS over the median of the reference times
	// within calibWindow of it, so one outlier does not move it and a
	// lasting change of speed does.
	r := calibRefMS
	g := speedGauge{ms: []float64{2 * r, 2 * r, 9 * r, 2 * r, 2 * r, r, r, r, r, r}}
	for i, want := range []float64{0.5, 0.5, 0.5, 0.5, 0.5, 1, 1, 1, 1, 1} {
		if got := g.factor(i); !near(got, want) {
			t.Errorf("factor(%d) = %v, want %v", i, got, want)
		}
	}
	got := g.scaleEach([]float64{10, 10, 10, 10}, 3)
	if want := []float64{5, 5, 5, 5}; !near(got[0], want[0]) || !near(got[3], want[3]) {
		t.Errorf("scaleEach = %v, want %v (units 0 and 1)", got, want)
	}
	g.sample()
	if len(g.ms) != 11 || g.ms[10] <= 0 {
		t.Errorf("sample recorded %v", g.ms)
	}
}
