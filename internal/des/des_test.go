package des

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
)

func TestTimeConversions(t *testing.T) {
	if Second.Seconds() != 1 {
		t.Errorf("Second.Seconds() = %v", Second.Seconds())
	}
	if FromSeconds(2.5) != 2500*Millisecond {
		t.Errorf("FromSeconds(2.5) = %v", FromSeconds(2.5))
	}
	if (1500 * Microsecond).String() != "0.001500s" {
		t.Errorf("String = %q", (1500 * Microsecond).String())
	}
}

func TestEventOrdering(t *testing.T) {
	e := New()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Errorf("Now = %v, want 30", e.Now())
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	if !sort.IntsAreSorted(order) {
		t.Errorf("same-instant events must run FIFO, got %v", order)
	}
}

func TestAfter(t *testing.T) {
	e := New()
	var at Time
	e.After(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 150 {
		t.Errorf("nested After ended at %v, want 150", at)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past must panic")
			}
		}()
		e.At(50, func() {})
	})
	e.Run()
}

func TestStepAndPending(t *testing.T) {
	e := New()
	if e.Step() {
		t.Error("Step on empty queue should be false")
	}
	e.At(1, func() {})
	e.At(2, func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending = %d", e.Pending())
	}
	if !e.Step() || e.Pending() != 1 {
		t.Error("Step should consume one event")
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Errorf("RunUntil(25) fired %v", fired)
	}
	if e.Now() != 25 {
		t.Errorf("Now = %v, want 25", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Errorf("remaining events not fired: %v", fired)
	}
}

func TestRunUntilDoesNotRewind(t *testing.T) {
	e := New()
	e.RunUntil(100)
	e.RunUntil(50)
	if e.Now() != 100 {
		t.Errorf("RunUntil must never rewind the clock, Now = %v", e.Now())
	}
}

func TestDeterminismUnderRandomLoad(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var log []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			log = append(log, e.Now())
			if depth < 4 {
				for i := 0; i < 3; i++ {
					e.After(Time(rng.Intn(100)), func() { spawn(depth + 1) })
				}
			}
		}
		e.At(0, func() { spawn(0) })
		e.Run()
		return log
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestClockMonotone(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(3))
	last := Time(-1)
	var check func()
	count := 0
	check = func() {
		if e.Now() < last {
			t.Fatalf("clock went backwards: %v after %v", e.Now(), last)
		}
		last = e.Now()
		count++
		if count < 500 {
			e.After(Time(rng.Intn(10)), check)
		}
	}
	e.At(0, check)
	e.Run()
}

// refHeap is the container/heap event queue the engine used before its typed
// heap; it is kept here only as the order reference.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// refEngine is Engine over refHeap.
type refEngine struct {
	now  Time
	heap refHeap
	seq  uint64
}

func (e *refEngine) Now() Time { return e.now }
func (e *refEngine) At(t Time, fn func()) {
	e.seq++
	heap.Push(&e.heap, event{at: t, seq: e.seq, fn: fn})
}
func (e *refEngine) After(d Time, fn func()) { e.At(e.now+d, fn) }
func (e *refEngine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := heap.Pop(&e.heap).(event)
	e.now = ev.at
	ev.fn()
	return true
}
func (e *refEngine) RunUntil(t Time) {
	for len(e.heap) > 0 && e.heap[0].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// engine is the surface the order-equivalence test drives on both queues.
type engine interface {
	Now() Time
	At(Time, func())
	After(Time, func())
	Step() bool
	RunUntil(Time)
}

// fired is one executed event: its firing time and its scheduling index,
// which equals the engine's seq.
type fired struct {
	at  Time
	seq int
}

// driveRandom runs one randomized script against e: bursts of absolute and
// relative events drawn from a small time range (so timestamps collide
// often), handlers that schedule nested After events, and RunUntil calls
// interleaved with single Steps.
func driveRandom(e engine, seed int64) []fired {
	rng := rand.New(rand.NewSource(seed))
	var log []fired
	scheduled := 0
	var schedule func(at Time, depth int)
	schedule = func(at Time, depth int) {
		scheduled++
		seq := scheduled
		e.At(at, func() {
			log = append(log, fired{e.Now(), seq})
			if depth < 3 {
				for k := rng.Intn(3); k > 0; k-- {
					scheduled++
					seq := scheduled
					d := depth
					e.After(Time(rng.Intn(4)), func() {
						log = append(log, fired{e.Now(), seq})
						if d < 2 && rng.Intn(2) == 0 {
							schedule(e.Now()+Time(rng.Intn(3)), d+1)
						}
					})
				}
			}
		})
	}
	for round := 0; round < 40; round++ {
		for k := rng.Intn(20); k > 0; k-- {
			schedule(e.Now()+Time(rng.Intn(8)), 0)
		}
		switch rng.Intn(3) {
		case 0:
			e.RunUntil(e.Now() + Time(rng.Intn(6)))
		case 1:
			for k := rng.Intn(5); k > 0 && e.Step(); k-- {
			}
		default:
			e.RunUntil(e.Now())
		}
	}
	for e.Step() {
	}
	return log
}

func TestOrderMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		got := driveRandom(New(), seed)
		want := driveRandom(&refEngine{}, seed)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d events fired, reference fired %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d fired as (at %d, seq %d), reference (at %d, seq %d)",
					seed, i, got[i].at, got[i].seq, want[i].at, want[i].seq)
			}
		}
		if len(want) < 100 {
			t.Fatalf("seed %d: only %d events fired; the script is too thin to compare", seed, len(want))
		}
	}
}

func TestPopZeroesVacatedSlot(t *testing.T) {
	e := New()
	for i := 0; i < 8; i++ {
		e.At(Time(i), func() {})
	}
	for e.Step() {
	}
	for i, ev := range e.heap[:cap(e.heap)] {
		if ev.fn != nil {
			t.Fatalf("slot %d still holds a popped closure", i)
		}
	}
}

func TestAtStepDoesNotAllocate(t *testing.T) {
	e := New()
	fn := func() {}
	// Warm the queue up to the depth the measured loop reaches.
	for i := 0; i < 64; i++ {
		e.At(e.Now()+Time(i), fn)
	}
	for e.Step() {
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			e.At(e.Now()+Time(i%7), fn)
		}
		for e.Step() {
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed-up At+Step allocated %v times per run, want 0", allocs)
	}
}

// BenchmarkEngineAtStep measures one At plus one Step on a queue holding
// about 256 pending events, the steady state of an event-driven run.
func BenchmarkEngineAtStep(b *testing.B) {
	e := New()
	rng := rand.New(rand.NewSource(1))
	fn := func() {}
	for i := 0; i < 256; i++ {
		e.At(Time(rng.Intn(1000)), fn)
	}
	// Grow the queue past its steady depth once, so even b.N = 1 measures
	// no slice growth.
	e.At(e.Now(), fn)
	e.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(e.Now()+Time(rng.Intn(1000)), fn)
		e.Step()
	}
}
