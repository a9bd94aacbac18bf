// Command screambench is the repository benchmark: four workloads over the
// library, the screamd service and the figure suite, timed from outside
// through exported functions only. See README.md in this directory for the
// workloads, the metrics and the layer each per-layer metric belongs to.
//
// One run:
//
//	screambench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints a readable report and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 the per-layer ones, from a
// separate traced pass. A failed correctness check makes it exit 1.
//
// Steadiness report:
//
//	screambench --steady <runs> --seconds <s> [--workload a,b] [--trace 0|1]
//
// repeats each workload with seeds 1..runs (as child processes) and prints
// every metric's median, quartiles and spread against its bound.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the seed whose outputs digests.json pins.
const defaultSeed = 1

// benchDir is where the benchmark writes profiles and span dumps; it is
// the build directory the wrapper script already uses.
const benchDir = ".bench_build"

type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every workload reports with --trace 0, in
// BENCHMARK.json order. An "op" is one scream.RunWith call (greedy-steady,
// protocol-churn), one screamd session (serve-sessions) or one figure call
// (figgen-quick); a "round" is a fixed amount of work (16 runs, a block of
// 256 sessions on one connection, one figure suite). Times are process CPU
// times (cputime.go) scaled to a fixed machine speed (calib.go), which on a
// shared host are far steadier than wall times; the readable report prints
// the unscaled and the wall times next to them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"op_cpu_ms_p50", "ms"},
	{"op_cpu_ms_tail", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"live_heap_mb", "MiB"},
}

// perLayer are the metrics every workload reports with --trace 1. A layer
// the workload never exercises reads 0.
var perLayer = func() []metricDef {
	var defs []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{n, unit})
		}
	}
	// flow / des / traffic / stats
	add("count", "flow.epochs_per_run")
	add("ms", "flow.epoch_ms_p50")
	add("ratio", "flow.self_share")
	add("count", "traffic.next_calls_per_run")
	add("ratio", "traffic.share")
	add("ratio", "flow.cpu_share", "des.cpu_share", "stats.cpu_share", "traffic.cpu_share",
		"rand.cpu_share", "gc.cpu_share", "malloc.cpu_share")
	// sched / phys
	add("count", "sched.builds_per_run")
	add("ms", "sched.build_ms_p50")
	add("ratio", "sched.share")
	add("count", "sched.slots_per_build", "phys.canadd_per_build")
	add("ratio", "phys.admit_ratio")
	add("count", "phys.rollbacks_per_build")
	add("ratio", "sched.cpu_share", "phys.cpu_share")
	// core
	add("ms", "core.build_ms_p50")
	add("ratio", "core.share")
	add("count", "core.elections_per_build", "core.screams_per_build", "core.handshakes_per_build")
	add("ratio", "core.ctrl_fraction", "core.cpu_share")
	// dynam / topo / route
	add("ratio", "dynam.advance_share")
	add("count", "dynam.events_per_run", "dynam.repairs_per_run", "dynam.rebuilds_per_run")
	add("ms", "dynam.rebind_ms_p50")
	add("ratio", "dynam.cpu_share", "topo.cpu_share", "route.cpu_share")
	// serve / obs
	add("ms", "serve.admit_ms_p50", "serve.first_epoch_ms_p50", "serve.overhead_ms_p50", "serve.inproc_ms_p50")
	add("bytes", "serve.bytes_per_session")
	add("count", "serve.events_per_session")
	add("bytes", "serve.trace_bytes_per_session")
	add("count", "serve.rejected")
	add("ms", "serve.gen_lag_ms_p95")
	add("ratio", "serve.cpu_share", "obs.cpu_share", "json.cpu_share", "http.cpu_share")
	// exp / mote
	for _, f := range figureKeys {
		add("ms", "exp.fig_ms."+f)
	}
	add("ratio", "exp.cpu_share", "mote.cpu_share")
	// the benchmark itself
	add("ratio", "bench.cpu_share", "trace.overhead_share")
	return defs
}()

// cpuBuckets maps profile buckets to their per-layer metric.
var cpuBuckets = []string{
	"flow", "des", "stats", "traffic", "rand", "gc", "malloc", "sched", "phys", "core",
	"dynam", "topo", "route", "serve", "obs", "json", "http", "exp", "mote", "bench",
}

// workload is one named benchmark workload.
type workload struct {
	name string
	why  string
	run  func(cfg runConfig) (*report, error)
}

var workloads = []workload{
	{"greedy-steady", "serial scream.RunWith on a pre-built 8x8 grid, greedy scheduler: the flow epoch loop's own machinery (des, percentiles, arrivals) dominates", runGreedySteady},
	{"protocol-churn", "serial scream.RunWith, FDD on a 6x6 grid under churn and waypoint mobility: SCREAM protocol and topology repair dominate", runProtocolChurn},
	{"serve-sessions", "screamd sessions over loopback, one connection, half ad hoc POSTs and half preloaded: admission, NDJSON streaming and trace capture", runServeSessions},
	{"figgen-quick", "the figgen -fig all -quick suite through the exp figure functions: cell engine, mote model, multi-channel and PDD", runFiggenQuick},
}

type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
}

// report is what a workload measured. failed counts operations that
// errored, were refused, or failed a correctness check; problems names the
// correctness failures.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	notes             []string // readable lines printed before the JSON
}

func newReport() *report { return &report{metrics: make(map[string]float64)} }

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// noteSpeed reports the reference task's times and the resulting scale.
func (r *report) noteSpeed(g *speedGauge) {
	q1, q2, q3 := quartiles(g.ms)
	var fs []float64
	for i := range g.ms {
		fs = append(fs, g.factor(i))
	}
	f1, f2, f3 := quartiles(fs)
	r.note("reference task ms q1/median/q3 %.3f/%.3f/%.3f over %d samples; CPU times scaled by q1/median/q3 %.4f/%.4f/%.4f",
		q1, q2, q3, len(g.ms), f1, f2, f3)
}

// setProfileShares turns bucketed CPU time into the *.cpu_share metrics.
func (r *report) setProfileShares(b map[string]time.Duration) {
	total := time.Duration(0)
	for _, d := range b {
		total += d
	}
	for _, k := range cpuBuckets {
		r.metrics[k+".cpu_share"] = ratio(float64(b[k]), float64(total))
	}
	keys := make([]string, 0, len(b))
	for k := range b {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return b[keys[i]] > b[keys[j]] })
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", k, 100*ratio(float64(b[k]), float64(total))))
	}
	r.note("cpu profile (%v sampled): %s", total, strings.Join(parts, ", "))
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name ("+workloadNames()+"); with --steady a comma list, default all")
		seed    = flag.Int64("seed", defaultSeed, "workload seed")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		steady  = flag.Int("steady", 0, "repeat each workload this many times (seeds 1..n) and report steadiness")
	)
	flag.Parse()
	if *steady > 0 {
		if err := steadiness(*name, *steady, *seconds, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "screambench:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(runOne(*name, runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}))
}

func workloadNames() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return strings.Join(n, ", ")
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func runOne(name string, cfg runConfig) int {
	w, ok := findWorkload(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "screambench: unknown workload %q (valid: %s)\n", name, workloadNames())
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "screambench: --seconds must be positive")
		return 2
	}
	if err := os.MkdirAll(benchDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "screambench:", err)
		return 1
	}
	rep, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "screambench: %s: %v\n", name, err)
		return 1
	}
	defs, mode := endToEnd, "untraced"
	if cfg.trace {
		defs, mode = perLayer, "traced"
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{
		Correct:   len(rep.problems) == 0,
		Attempted: max(rep.attempted, 1),
		Failed:    rep.failed,
		Metrics:   make(map[string]map[string]any),
	}
	var idle []string
	for _, d := range defs {
		if _, ok := rep.metrics[d.name]; !ok && cfg.trace {
			// A per-layer metric of a layer this workload never calls.
			rep.metrics[d.name] = 0
			idle = append(idle, d.name)
		}
	}
	if len(idle) > 0 {
		rep.note("not exercised by this workload (reported as 0): %s", strings.Join(idle, " "))
	}
	fmt.Printf("# %s seed=%d seconds=%g %s nproc=%d %s\n", w.name, cfg.seed, cfg.seconds, mode, runtime.NumCPU(), runtime.Version())
	for _, n := range rep.notes {
		fmt.Println("#", n)
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			rep.problems = append(rep.problems, fmt.Sprintf("metric %s not measured", d.name))
			out.Correct = false
			v = 0
		}
		fmt.Printf("%-16s %-34s %14.6g %s\n", w.name, d.name, v, d.unit)
		out.Metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	fmt.Printf("%-16s %-34s %14.6g ratio (%d of %d operations)\n", w.name, "fail_frac",
		ratio(float64(rep.failed), float64(out.Attempted)), rep.failed, out.Attempted)
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "screambench: check failed:", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "screambench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// Set-up is repeated in setupBatches batches, each running it at least
// once and until setupBatch of wall time has passed; setup_s is the median
// over batches of the mean process CPU time of a set-up within a batch,
// each scaled to the reference speed by the reference task timed around
// it. Averaging inside a batch spreads the garbage collections that
// set-up triggers evenly over repetitions, which a median of single
// repetitions would not.
const (
	setupBatches = 15
	setupBatch   = 40 * time.Millisecond
)

// repeatSetup times fn repeatedly and returns the median batch mean in
// CPU seconds at the reference speed.
func repeatSetup(fn func() error) (float64, error) {
	var means []float64
	var speed speedGauge
	for b := 0; b < setupBatches; b++ {
		speed.sample()
		n := 0
		t0, c0 := time.Now(), cpuNow()
		for n == 0 || time.Since(t0) < setupBatch {
			if err := fn(); err != nil {
				return 0, err
			}
			n++
		}
		means = append(means, (cpuNow()-c0).Seconds()/float64(n))
	}
	return median(speed.scaleEach(means, 1)), nil
}

// benchPath is a file under the benchmark's output directory.
func benchPath(name string) string { return filepath.Join(benchDir, name) }

// repoFile reads a file of the checkout the benchmark runs in.
func repoFile(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%s not found: run from the root of a checkout", path)
	}
	return b, err
}
