package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"scream/internal/exp"
	"scream/internal/stats"
)

// figure is one call of the figgen -fig all suite, in its order.
type figure struct {
	name string // figgen's name for the figure
	key  string // exp.fig_ms.<key>
	run  func(exp.Options) (*stats.Figure, error)
}

var suite = []figure{
	{"Fig4", "fig4", exp.Fig4},
	{"Fig5", "fig5", exp.Fig5},
	{"Fig6", "fig6", exp.Fig6},
	{"Fig7", "fig7", exp.Fig7},
	{"Fig8", "fig8", exp.Fig8},
	{"Fig9", "fig9", exp.Fig9},
	{"FigFlowLoad", "flow", exp.FigFlowLoad},
	{"FigChurn", "churn", exp.FigChurn},
	{"AblationPDDProbability", "ablations", exp.AblationPDDProbability},
	{"AblationGreedyOrdering", "ablations", exp.AblationGreedyOrdering},
	{"AblationScreamK", "ablations", exp.AblationScreamK},
	{"AblationAckModel", "ablations", exp.AblationAckModel},
	{"AblationFDDSeal", "ablations", exp.AblationFDDSeal},
	{"AblationBalancedRouting", "ablations", exp.AblationBalancedRouting},
	{"AblationMoteRelays", "ablations", exp.AblationMoteRelays},
	{"AblationShadowing", "ablations", exp.AblationShadowing},
	{"FigChannels", "channels", exp.FigChannels},
	{"FigSched", "sched", exp.FigSched},
}

// figureKeys are the exp.fig_ms.<key> metric names; the eight ablations
// share one key and report their summed time.
var figureKeys = []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "flow", "churn", "channels", "sched", "ablations"}

// figWorkers is the cell engine's worker count. figgen defaults to one
// worker per CPU, but with every core busy the suite's many short parallel
// figures swing with any other load on the machine (their median time
// varied twice as much as the suite's); one worker leaves a core for the
// collector and keeps figure times as steady as the suite. Output is
// identical for any worker count.
const figWorkers = 1

// figTail is the tail percentile of figure-call times: a suite has 18
// calls, so a run of a few suites cannot leave ten samples beyond a p95.
const figTail = 75

// figMinSuites is the fewest suites a run makes, even when that takes
// longer than its seconds: three suites (54 calls) leave ten calls beyond
// the p75.
const figMinSuites = 3

// figSuite runs the suite once, timing each call — CPU time per call in
// opMS, wall time summed per key in byKey — and checking each figure's TSV
// digest against the recorded one. With a speed gauge, it times the
// reference task before each call.
func figSuite(rep *report, opts exp.Options, rec *Recorder, check bool, speed *speedGauge) (opMS []float64, byKey map[string]float64, alloc uint64, err error) {
	byKey = make(map[string]float64)
	var ms0, ms1 runtime.MemStats
	var suiteID int
	if rec != nil {
		suiteID = rec.Begin("suite", 0)
	}
	for _, f := range suite {
		rep.attempted++
		var id int
		if rec != nil {
			id = rec.Begin(f.key, suiteID)
		}
		if speed != nil {
			speed.sample()
		}
		runtime.ReadMemStats(&ms0)
		t0, c0 := time.Now(), cpuNow()
		fig, ferr := f.run(opts)
		cpu, wall := cpuNow()-c0, time.Since(t0)
		runtime.ReadMemStats(&ms1)
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
		if rec != nil {
			rec.End(id)
		}
		opMS = append(opMS, float64(cpu)/1e6)
		byKey[f.key] += float64(wall) / 1e6
		if ferr != nil {
			rep.fail("%s: %v", f.name, ferr)
			continue
		}
		var tsv bytes.Buffer
		if err := fig.WriteTSV(&tsv); err != nil {
			return nil, nil, 0, err
		}
		if check {
			checkDigest(rep, "figgen-quick/"+f.name, digestBytes(tsv.Bytes()), defaultSeed, true)
		}
	}
	if rec != nil {
		rec.End(suiteID)
	}
	return opMS, byKey, alloc, nil
}

// setupFiggen builds the deployments the figure suite samples — the grid
// and uniform scenarios at every quick density — repeatedly (see
// repeatSetup). The suite's figures build their own; this times the
// deployment layer the suite stands on, so work moved into it shows.
func setupFiggen() (float64, error) {
	return repeatSetup(func() error {
		for _, d := range exp.Densities(true) {
			if _, err := exp.GridScenario(d, 1); err != nil {
				return err
			}
			if _, err := exp.UniformScenario(d, 1); err != nil {
				return err
			}
		}
		return nil
	})
}

func runFiggenQuick(cfg runConfig) (*report, error) {
	rep := newReport()
	setupS, err := setupFiggen()
	if err != nil {
		return nil, err
	}
	opts := exp.Options{Quick: true, Workers: figWorkers}
	if !cfg.trace {
		var opMS, wallS []float64
		var alloc uint64
		var speed speedGauge
		deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
		for s := 0; s < figMinSuites || time.Now().Before(deadline); s++ {
			ms, byKey, a, err := figSuite(rep, opts, nil, s == 0, &speed)
			if err != nil {
				return nil, err
			}
			wallMS := 0.0
			for _, v := range byKey {
				wallMS += v
			}
			wallS = append(wallS, wallMS/1e3)
			opMS = append(opMS, ms...)
			alloc += a
		}
		runtime.GC()
		var ms2 runtime.MemStats
		runtime.ReadMemStats(&ms2)
		// Call i ran right after reference time i.
		ops := speed.scaleEach(opMS, 1)
		var suiteS []float64
		for i := 0; i < len(ops); i += len(suite) {
			suiteS = append(suiteS, sum(ops[i:i+len(suite)])/1e3)
		}
		rep.metrics["setup_s"] = setupS
		rep.metrics["cpu_s"] = median(suiteS)
		rep.metrics["op_cpu_ms_p50"] = median(ops)
		rep.metrics["op_cpu_ms_tail"] = percentile(ops, figTail)
		rep.metrics["alloc_kb_per_op"] = float64(alloc) / 1024 / float64(len(opMS))
		rep.metrics["live_heap_mb"] = float64(ms2.HeapAlloc) / (1 << 20)
		rep.note("%d suites (wall median %.3f s), %d figure calls, workers=%d; op_cpu_ms_tail is p%d (%d samples beyond, ten-beyond rule %v)",
			len(suiteS), median(wallS), len(opMS), opts.Workers, figTail, beyond(len(opMS), figTail), tailOK(len(opMS), figTail))
		rep.noteSpeed(&speed)
		return rep, nil
	}

	// Traced: one suite untraced, then suites under spans and a CPU
	// profile for the rest of the time.
	t0 := time.Now()
	if _, _, _, err := figSuite(rep, opts, nil, true, nil); err != nil {
		return nil, err
	}
	plainS := time.Since(t0).Seconds()
	rec := newRecorder()
	prof, err := startCPUProfile(benchPath("cpu-figgen-quick.pprof"))
	if err != nil {
		return nil, err
	}
	perKey := make(map[string][]float64)
	var tracedS []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds / 2 * float64(time.Second)))
	for s := 0; s == 0 || time.Now().Before(deadline); s++ {
		t0 := time.Now()
		_, byKey, _, err := figSuite(rep, opts, rec, true, nil)
		if err != nil {
			return nil, err
		}
		tracedS = append(tracedS, time.Since(t0).Seconds())
		for k, v := range byKey {
			perKey[k] = append(perKey[k], v)
		}
	}
	buckets, err := prof.Stop()
	if err != nil {
		return nil, err
	}
	rep.setProfileShares(buckets)
	var parts []string
	for _, k := range figureKeys {
		rep.metrics["exp.fig_ms."+k] = median(perKey[k])
		parts = append(parts, fmt.Sprintf("%s %.0f", k, median(perKey[k])))
	}
	rep.metrics["trace.overhead_share"] = median(tracedS)/plainS - 1
	rep.note("figure ms (median over %d traced suites): %s", len(tracedS), strings.Join(parts, ", "))
	return rep, rec.WriteJSONL(benchPath("spans-figgen-quick.jsonl"))
}
