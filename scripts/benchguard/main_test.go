package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: scream
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFlowEpoch        	    3330	    659820 ns/op	       731.0 delivered_pkts	  404344 B/op	     571 allocs/op
BenchmarkGreedyPhysical64 	    4713	    519689 ns/op	   83125 B/op	     178 allocs/op
BenchmarkSlotStateVsNaive/grid64/incremental         	 2916570	       435.6 ns/op	       0 B/op	       0 allocs/op
BenchmarkEngineAtStep-8   	 6367593	       163.4 ns/op	       0 B/op	       0 allocs/op
PASS
`

func TestParseBenchKeepsMinimumAcrossRepeats(t *testing.T) {
	repeated := "BenchmarkX \t 1 \t 500 ns/op \t 96 B/op \t 3 allocs/op\n" +
		"BenchmarkX \t 1 \t 300 ns/op \t 128 B/op \t 4 allocs/op\n" +
		"BenchmarkX \t 1 \t 400 ns/op \t 64 B/op \t 3 allocs/op\n"
	got, err := parseBench(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	if want := (result{NsOp: 300, BytesOp: 64, AllocsOp: 3}); got["BenchmarkX"] != want {
		t.Fatalf("BenchmarkX = %+v, want the per-column minimum %+v", got["BenchmarkX"], want)
	}
}

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]result{
		"BenchmarkFlowEpoch":                           {NsOp: 659820, BytesOp: 404344, AllocsOp: 571},
		"BenchmarkGreedyPhysical64":                    {NsOp: 519689, BytesOp: 83125, AllocsOp: 178},
		"BenchmarkSlotStateVsNaive/grid64/incremental": {NsOp: 435.6},
		"BenchmarkEngineAtStep":                        {NsOp: 163.4},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d results, want %d: %v", len(got), len(want), got)
	}
	for name, r := range want {
		if got[name] != r {
			t.Errorf("%s = %+v, want %+v", name, got[name], r)
		}
	}
}

func TestParseBenchRequiresBenchmem(t *testing.T) {
	_, err := parseBench(strings.NewReader("BenchmarkX-8 \t 10 \t 500 ns/op\n"))
	if err == nil || !strings.Contains(err.Error(), "-benchmem") {
		t.Fatalf("ns/op-only output must be rejected with a -benchmem hint, got %v", err)
	}
}

func ns(v float64) result { return result{NsOp: v} }

func TestCompareFlagsInjectedSlowdown(t *testing.T) {
	base := map[string]result{"BenchmarkA": ns(100), "BenchmarkB": ns(1000)}
	// B injected with a 50% slowdown: must fail a 30% gate.
	fresh := map[string]result{"BenchmarkA": ns(110), "BenchmarkB": ns(1500)}
	table, failures := compare(base, fresh, 0.30)
	if len(failures) != 1 || !strings.Contains(failures[0], "BenchmarkB") {
		t.Fatalf("want exactly BenchmarkB to fail, got %v", failures)
	}
	if !strings.Contains(table, "BenchmarkA") || !strings.Contains(table, "+10.0%") {
		t.Errorf("table should show the passing delta:\n%s", table)
	}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	base := map[string]result{"BenchmarkA": ns(100)}
	fresh := map[string]result{"BenchmarkA": ns(129), "BenchmarkNew": ns(5)}
	table, failures := compare(base, fresh, 0.30)
	if len(failures) != 0 {
		t.Fatalf("29%% within a 30%% gate must pass, got %v", failures)
	}
	if !strings.Contains(table, "BenchmarkNew") || !strings.Contains(table, "new") {
		t.Errorf("untracked benchmarks should be listed as new:\n%s", table)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := map[string]result{"BenchmarkGone": ns(100)}
	_, failures := compare(base, map[string]result{"BenchmarkOther": ns(50)}, 0.30)
	if len(failures) != 1 || !strings.Contains(failures[0], "missing") {
		t.Fatalf("a vanished tracked benchmark must fail, got %v", failures)
	}
}

func TestCompareGatesAllocs(t *testing.T) {
	base := map[string]result{
		"BenchmarkSame":   {NsOp: 100, AllocsOp: 571},
		"BenchmarkFewer":  {NsOp: 100, AllocsOp: 571},
		"BenchmarkGrew":   {NsOp: 100, AllocsOp: 571},
		"BenchmarkFree":   {NsOp: 100, AllocsOp: 0},
		"BenchmarkWithin": {NsOp: 100, AllocsOp: 1000},
	}
	fresh := map[string]result{
		"BenchmarkSame":   {NsOp: 90, AllocsOp: 571},
		"BenchmarkFewer":  {NsOp: 90, AllocsOp: 300},
		"BenchmarkGrew":   {NsOp: 90, AllocsOp: 600},       // +5%: over a 2% gate
		"BenchmarkFree":   {NsOp: 90, AllocsOp: 1},         // zero-alloc benchmark started allocating
		"BenchmarkWithin": {NsOp: 90, AllocsOp: 1000 + 19}, // +1.9%
	}
	_, failures := compare(base, fresh, 0.30)
	if len(failures) != 2 || !strings.Contains(failures[0], "BenchmarkFree") || !strings.Contains(failures[1], "BenchmarkGrew") {
		t.Fatalf("want BenchmarkFree and BenchmarkGrew to fail the allocs gate, got %v", failures)
	}
}
