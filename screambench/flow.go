package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"scream"
	"scream/internal/des"
	"scream/internal/dynam"
	"scream/internal/flow"
	"scream/internal/obs"
	"scream/internal/sched"
	"scream/internal/traffic"
)

// The flow workloads' scenario specs. Each workload builds one deployment
// from its spec in set-up; run i replaces only the spec's seed, which
// drives arrivals, protocol coins and the dynamics timeline.
const (
	greedySpecJSON = `{"topology":{"kind":"grid","rows":8,"cols":8,"step_m":30},` +
		`"traffic":{"kind":"poisson","load":0.9},"scheduler":"greedy","horizon_sec":5,` +
		`"frames_per_epoch":8,"max_service":8}`
	churnSpecJSON = `{"topology":{"kind":"grid","rows":6,"cols":6,"step_m":30},` +
		`"traffic":{"kind":"poisson","load":0.5},"scheduler":"fdd","horizon_sec":2,` +
		`"frames_per_epoch":16,"max_service":8,` +
		`"dynamics":{"fail_rate":0.3,"mean_downtime_sec":0.3,"mobility":"waypoint","speed_mps":2}}`
)

const (
	flowRound  = 16 // runs per round: the fixed unit of work cpu_s times
	warmupRuns = 3
)

func runGreedySteady(cfg runConfig) (*report, error) {
	return runFlowWorkload("greedy-steady", greedySpecJSON, cfg)
}

func runProtocolChurn(cfg runConfig) (*report, error) {
	return runFlowWorkload("protocol-churn", churnSpecJSON, cfg)
}

// deriveSeed mixes the workload seed with a stream index (splitmix64).
func deriveSeed(base int64, stream int64) int64 {
	x := uint64(base)*0x9e3779b97f4a7c15 + uint64(stream) + 0x632be59bd9b4e019
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64(x ^ (x >> 31))
}

type flowBench struct {
	name string
	spec scream.ScenarioSpec
	mesh *scream.Mesh
	seed int64
}

// setupFlow builds the workload's deployment — the mesh plus the lazy
// channel caches its first run would fill — repeatedly (see repeatSetup)
// and keeps the last.
func setupFlow(name, specJSON string, seed int64) (*flowBench, float64, error) {
	spec, err := scream.ParseScenario([]byte(specJSON))
	if err != nil {
		return nil, 0, err
	}
	spec.Seed = seed
	b := &flowBench{name: name, spec: spec, seed: seed}
	setupS, err := repeatSetup(func() error {
		m, err := spec.Mesh()
		if err != nil {
			return err
		}
		if _, err := m.FlowFrameTime(scream.DefaultTiming()); err != nil {
			return err
		}
		b.mesh = m
		return nil
	})
	return b, setupS, err
}

func (b *flowBench) specFor(seed int64) scream.ScenarioSpec {
	s := b.spec.Clone()
	s.Seed = seed
	return s
}

// runSeed is one operation: a scream.RunWith call on the pre-built mesh.
// It returns the call's process CPU time and wall time.
func (b *flowBench) runSeed(seed int64) (res *scream.FlowResult, cpu, wall time.Duration, err error) {
	spec := b.specFor(seed)
	t0, c0 := time.Now(), cpuNow()
	res, err = scream.RunWith(context.Background(), spec, scream.RunOptions{Mesh: b.mesh})
	return res, cpuNow() - c0, time.Since(t0), err
}

// checkConservation is the packet ledger every flow run must balance.
func checkConservation(rep *report, what string, r *scream.FlowResult) bool {
	if r.Offered != r.Delivered+r.Dropped+r.LostOnFailure+r.FinalBacklog {
		rep.fail("%s: conservation broken: offered %d != delivered %d + dropped %d + lost %d + backlog %d",
			what, r.Offered, r.Delivered, r.Dropped, r.LostOnFailure, r.FinalBacklog)
		return false
	}
	if r.Epochs == 0 {
		rep.fail("%s: no epoch ran", what)
		return false
	}
	return true
}

// flowPass is one timed pass of untraced runs: per-run and per-round
// process CPU time, and the rounds' wall time for the readable report.
type flowPass struct {
	seeds      []int64
	results    []*scream.FlowResult
	opMS       []float64
	opWallMS   []float64
	roundS     []float64
	roundWallS []float64
	speed      speedGauge
	allocKB    float64
	liveMB     float64
}

// measure runs rounds of flowRound runs until seconds have passed (always
// at least one round). Run i uses deriveSeed(workload seed, i).
func (b *flowBench) measure(rep *report, seconds float64, keep bool) (*flowPass, error) {
	for i := 0; i < warmupRuns; i++ {
		rep.attempted++
		res, _, _, err := b.runSeed(deriveSeed(b.seed, -1-int64(i)))
		if err != nil {
			rep.fail("warm-up run %d: %v", i, err)
			continue
		}
		checkConservation(rep, "warm-up run", res)
	}
	p := &flowPass{}
	dg := newDigester()
	var ms0, ms1 runtime.MemStats
	var alloc uint64 // allocated by the rounds themselves, not the gauge
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		p.speed.sample()
		runtime.ReadMemStats(&ms0)
		t0, c0 := time.Now(), cpuNow()
		for j := 0; j < flowRound; j++ {
			i := round*flowRound + j
			seed := deriveSeed(b.seed, int64(i))
			rep.attempted++
			res, cpu, wall, err := b.runSeed(seed)
			p.opMS = append(p.opMS, float64(cpu)/1e6)
			p.opWallMS = append(p.opWallMS, float64(wall)/1e6)
			if err != nil {
				rep.fail("run %d (seed %d): %v", i, seed, err)
				continue
			}
			checkConservation(rep, fmt.Sprintf("run %d", i), res)
			if round == 0 {
				if err := dg.add(res); err != nil {
					return nil, err
				}
			}
			if keep {
				p.seeds = append(p.seeds, seed)
				p.results = append(p.results, res)
			}
		}
		p.roundS = append(p.roundS, (cpuNow() - c0).Seconds())
		p.roundWallS = append(p.roundWallS, time.Since(t0).Seconds())
		runtime.ReadMemStats(&ms1)
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
	}
	p.allocKB = float64(alloc) / 1024 / float64(len(p.opMS))
	runtime.GC()
	var ms2 runtime.MemStats
	runtime.ReadMemStats(&ms2)
	p.liveMB = float64(ms2.HeapAlloc) / (1 << 20)
	checkDigest(rep, b.name+"/round0", dg.hex(), b.seed, false)
	return p, nil
}

func runFlowWorkload(name, specJSON string, cfg runConfig) (*report, error) {
	rep := newReport()
	b, setupS, err := setupFlow(name, specJSON, cfg.seed)
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		p, err := b.measure(rep, cfg.seconds, false)
		if err != nil {
			return nil, err
		}
		rep.metrics["setup_s"] = setupS
		ops := p.speed.scaleEach(p.opMS, flowRound)
		rep.metrics["cpu_s"] = median(p.speed.scaleEach(p.roundS, 1))
		rep.metrics["op_cpu_ms_p50"] = median(ops)
		rep.metrics["op_cpu_ms_tail"] = percentile(ops, 95)
		rep.metrics["alloc_kb_per_op"] = p.allocKB
		rep.metrics["live_heap_mb"] = p.liveMB
		q1, q2, q3 := quartiles(p.roundS)
		rep.note("%d runs in %d rounds of %d (unscaled round CPU q1/median/q3 %.4f/%.4f/%.4f s, round wall median %.4f s); op_cpu_ms_tail is p95 (%d samples beyond, ten-beyond rule %v)",
			len(p.opMS), len(p.roundS), flowRound, q1, q2, q3, median(p.roundWallS), beyond(len(p.opMS), 95), tailOK(len(p.opMS), 95))
		rep.noteSpeed(&p.speed)
		return rep, nil
	}
	// Traced: an untraced pass over half the time, then the same seeds
	// again through the traced wiring.
	p, err := b.measure(rep, cfg.seconds/2, true)
	if err != nil {
		return nil, err
	}
	return rep, b.traced(rep, p)
}

// flowTrace is the per-run state of the traced wiring.
type flowTrace struct {
	rec      *Recorder
	runID    int
	epochID  int
	epochs   []int   // closed epoch span ids, in order
	epochNow []int64 // simulated time at each epoch's end (OnEpoch)
	arrNS    int64   // Arrival.Next time in the open epoch
	arrCalls int
	slots    int
	// rebindParents is the epoch open at each Rebind call: an adaptive
	// scheduler rebinds exactly once per applied change batch, right after
	// the batch, so the k-th entry is where batch k ran.
	rebindParents []int
}

// timedArrival wraps an arrival process and charges its Next calls to the
// open epoch.
type timedArrival struct {
	a  traffic.Arrival
	st *flowTrace
}

func (t timedArrival) Next(now des.Time, rng *rand.Rand) des.Time {
	t0 := t.st.rec.now()
	next := t.a.Next(now, rng)
	t.st.arrNS += t.st.rec.now() - t0
	t.st.arrCalls++
	return next
}

// closeEpoch ends the open epoch span (renamed when the run ended before
// its OnEpoch) and attaches its aggregated arrival time.
func (st *flowTrace) closeEpoch(name string) {
	st.rec.End(st.epochID)
	st.rec.Rename(st.epochID, name)
	if st.arrCalls > 0 {
		start := st.rec.spans[st.epochID-1].Start
		st.rec.Add(Span{Parent: st.epochID, Name: "arrival", Start: start, End: start + st.arrNS, Agg: true, Count: st.arrCalls})
	}
	st.arrNS, st.arrCalls = 0, 0
}

func secs(x float64) des.Time { return des.Time(x * float64(des.Second)) }

// dynamicsConfig mirrors how scream.RunWith turns a spec's dynamics block
// into a dynam.Config; nil for an inert block.
func dynamicsConfig(spec scream.ScenarioSpec) (*dynam.Config, error) {
	d := spec.Dynamics
	if d == nil {
		return nil, nil
	}
	cfg := &dynam.Config{
		FailRate:     d.FailRate,
		MeanDowntime: secs(d.MeanDowntimeSec),
		FailGateways: d.FailGateways,
		MoveInterval: secs(d.MoveIntervalSec),
		Horizon:      secs(spec.HorizonSec),
		Seed:         spec.Seed,
	}
	switch d.Mobility {
	case "", "none":
	case "waypoint":
		cfg.Mobility = dynam.RandomWaypoint{SpeedMps: d.SpeedMps, Pause: secs(d.PauseSec)}
	case "drift":
		cfg.Mobility = dynam.Drift{SpeedMps: d.SpeedMps}
	default:
		return nil, fmt.Errorf("unknown mobility %q", d.Mobility)
	}
	if d.FailRate == 0 && cfg.Mobility == nil {
		return nil, nil
	}
	return cfg, nil
}

// tracedRun wires the layers the way scream.RunFlowContext does — the
// registry scheduler constructor, then flow.Run — with spans around the
// scheduler's Build and Rebind and the arrival processes' Next, epoch
// boundaries from OnEpoch, and counters from a per-run registry. It returns
// the result, the run's wall time, the simulated times at which the
// dynamics world applied change batches, and the counters.
func (b *flowBench) tracedRun(rec *Recorder, seed int64) (*scream.FlowResult, *flowTrace, []int64, obs.Snapshot, error) {
	spec := b.specFor(seed)
	m := b.mesh
	reg := scream.NewObsRegistry()
	scream.EnableRuntimeMetrics(reg)
	defer scream.EnableRuntimeMetrics(nil)
	st := &flowTrace{rec: rec}
	st.runID = rec.Begin("run", 0)
	st.epochID = rec.Begin("epoch", st.runID)

	tm := scream.DefaultTiming()
	if spec.Traffic.Kind != "poisson" || spec.Traffic.Load <= 0 {
		return nil, nil, nil, obs.Snapshot{}, fmt.Errorf("traced wiring supports load-based poisson traffic only")
	}
	frame, err := m.FlowFrameTime(tm)
	if err != nil {
		return nil, nil, nil, obs.Snapshot{}, err
	}
	rate := spec.Traffic.Load / frame.Seconds()
	arrivals := make([]traffic.Arrival, m.NumNodes())
	for _, u := range nonGateways(m) {
		a, err := traffic.NewPoisson(rate)
		if err != nil {
			return nil, nil, nil, obs.Snapshot{}, err
		}
		arrivals[u] = timedArrival{a: a, st: st}
	}

	net := m.Network
	var (
		world      *dynam.World
		repairCost des.Time
		churn      bytes.Buffer
		churnTr    *obs.Tracer
	)
	dcfg, err := dynamicsConfig(spec)
	if err != nil {
		return nil, nil, nil, obs.Snapshot{}, err
	}
	if dcfg != nil {
		net = m.Network.Clone()
		world, err = dynam.NewWorld(net, m.Forest, *dcfg)
		if err != nil {
			return nil, nil, nil, obs.Snapshot{}, err
		}
		churnTr = obs.NewTracer(&churn)
		world.SetObs(reg, churnTr)
		k := spec.K
		if k == 0 {
			k = net.InterferenceDiameter()
		}
		repairCost = tm.RepairCost(k)
	}
	def, err := flow.SchedulerDefByName(spec.SchedulerName())
	if err != nil {
		return nil, nil, nil, obs.Snapshot{}, err
	}
	inner, err := def.New(flow.SchedulerEnv{
		Channel:  net.Channel,
		Sens:     net.Sens,
		Links:    m.Links,
		K:        spec.K,
		Timing:   tm,
		P:        spec.P,
		Seed:     spec.Seed,
		Channels: 1,
		Radios:   m.NumRadios(),
		Metrics:  reg,
	})
	if err != nil {
		return nil, nil, nil, obs.Snapshot{}, err
	}
	wrapped := inner
	wrapped.Build = func(d []int, epoch int) (*sched.Schedule, des.Time, error) {
		id := rec.Begin("build", st.epochID)
		s, ctrl, err := inner.Build(d, epoch)
		rec.End(id)
		if s != nil {
			st.slots += s.Length()
		}
		return s, ctrl, err
	}
	if inner.Rebind != nil {
		wrapped.Rebind = func(t flow.Topology) error {
			st.rebindParents = append(st.rebindParents, st.epochID)
			id := rec.Begin("rebind", st.epochID)
			err := inner.Rebind(t)
			rec.End(id)
			return err
		}
	}
	res, err := flow.Run(flow.Config{
		Forest:         m.Forest,
		Links:          m.Links,
		Scheduler:      wrapped,
		Timing:         tm,
		Arrivals:       arrivals,
		Horizon:        secs(spec.HorizonSec),
		Seed:           spec.Seed,
		MaxQueue:       spec.MaxQueue,
		MaxService:     spec.MaxService,
		FramesPerEpoch: spec.FramesPerEpoch,
		IdleWait:       secs(spec.IdleWaitSec),
		Dynamics:       world,
		RepairCost:     repairCost,
		Metrics:        reg,
		OnEpoch: func(u flow.EpochUpdate) {
			st.closeEpoch("epoch")
			st.epochs = append(st.epochs, st.epochID)
			st.epochNow = append(st.epochNow, int64(u.Now))
			st.epochID = rec.Begin("epoch", st.runID)
		},
	})
	st.closeEpoch("tail")
	rec.End(st.runID)
	if err != nil {
		return nil, nil, nil, obs.Snapshot{}, err
	}
	changes, err := churnTimes(churnTr, &churn)
	return res, st, changes, reg.TakeSnapshot(), err
}

func nonGateways(m *scream.Mesh) []int {
	gw := make(map[int]bool)
	for _, g := range m.Gateways() {
		gw[g] = true
	}
	var out []int
	for u := 0; u < m.NumNodes(); u++ {
		if !gw[u] {
			out = append(out, u)
		}
	}
	return out
}

// churnTimes reads back the simulated time of every change batch the world
// applied, from its "churn" trace events.
func churnTimes(tr *obs.Tracer, buf *bytes.Buffer) ([]int64, error) {
	if tr == nil {
		return nil, nil
	}
	tr.Flush()
	var out []int64
	dec := json.NewDecoder(buf)
	for dec.More() {
		var ev struct {
			Ev string `json:"ev"`
			T  int64  `json:"t"`
		}
		if err := dec.Decode(&ev); err != nil {
			return nil, err
		}
		if ev.Ev == "churn" {
			out = append(out, ev.T)
		}
	}
	return out, nil
}

// tracedRunData is what one traced run leaves for the analysis.
type tracedRunData struct {
	seed    int64
	res     *scream.FlowResult
	st      *flowTrace
	changes []int64
	snap    obs.Snapshot
}

// traced replays the untraced pass's seeds through the traced wiring under
// a CPU profile, then replays the dynamics timelines to time AdvanceTo, and
// derives the per-layer metrics.
func (b *flowBench) traced(rep *report, untraced *flowPass) error {
	rec := newRecorder()
	prof, err := startCPUProfile(benchPath("cpu-" + b.name + ".pprof"))
	if err != nil {
		return err
	}
	runs := make([]tracedRunData, 0, len(untraced.seeds))
	for i, seed := range untraced.seeds {
		rep.attempted++
		res, st, changes, snap, err := b.tracedRun(rec, seed)
		if err != nil {
			rep.fail("traced run %d: %v", i, err)
			continue
		}
		if !reflect.DeepEqual(res, untraced.results[i]) {
			rep.fail("traced run %d (seed %d): result differs from scream.RunWith", i, seed)
		}
		checkConservation(rep, fmt.Sprintf("traced run %d", i), res)
		runs = append(runs, tracedRunData{seed, res, st, changes, snap})
	}
	buckets, err := prof.Stop()
	if err != nil {
		return err
	}
	rep.setProfileShares(buckets)

	// Dynamics replay, outside the profile: a fresh world over a fresh
	// clone, advanced to each recorded change time. Each batch's time is
	// charged to the epoch that applied it, as an aggregate child.
	for i, r := range runs {
		if err := b.replayDynamics(rep, rec, i, r); err != nil {
			return err
		}
	}

	sp := summarize(rec.Spans())
	get := func(n string) *nameStats {
		if s := sp[n]; s != nil {
			return s
		}
		return &nameStats{}
	}
	n := float64(len(runs))
	runNS := float64(get("run").total)
	selfNS := float64(get("run").self + get("epoch").self + get("tail").self)
	rep.metrics["flow.epochs_per_run"] = float64(len(get("epoch").durMS)) / n
	rep.metrics["flow.epoch_ms_p50"] = median(get("epoch").durMS)
	rep.metrics["flow.self_share"] = ratio(selfNS, runNS)
	rep.metrics["traffic.next_calls_per_run"] = float64(get("arrival").count) / n
	rep.metrics["traffic.share"] = ratio(float64(get("arrival").total), runNS)

	// Build spans time the centralized scheduler (sched) or the
	// distributed protocol (core); the other layer's metrics stay unset
	// and read 0.
	def, _ := flow.SchedulerDefByName(b.spec.SchedulerName())
	builds := float64(get("build").count)
	layer := "sched"
	if def.Distributed {
		layer = "core"
	}
	rep.metrics[layer+".build_ms_p50"] = median(get("build").durMS)
	rep.metrics[layer+".share"] = ratio(float64(get("build").total), runNS)
	c := make(map[string]float64)
	slots, ctrl, events, repairs, rebuilds := 0, 0.0, 0, 0, 0
	for _, r := range runs {
		for k, v := range r.snap.Counters {
			c[k] += float64(v)
		}
		slots += r.st.slots
		ctrl += r.res.ControlFraction
		events += r.res.FailEvents + r.res.RecoverEvents + r.res.MoveEvents
		repairs += r.res.Repairs
		rebuilds += r.res.Rebuilds
	}
	rep.metrics["sched.builds_per_run"] = c["scream_sched_builds_total"] / n
	rep.metrics["sched.slots_per_build"] = ratio(float64(slots), builds)
	rep.metrics["phys.canadd_per_build"] = ratio(c["scream_phys_canadd_total"], builds)
	rep.metrics["phys.admit_ratio"] = ratio(c["scream_phys_slot_adds_total"], c["scream_phys_canadd_total"])
	rep.metrics["phys.rollbacks_per_build"] = ratio(c["scream_phys_rollbacks_total"], builds)
	rep.metrics["core.elections_per_build"] = ratio(c["scream_core_elections_total"], builds)
	rep.metrics["core.screams_per_build"] = ratio(c["scream_core_screams_total"], builds)
	rep.metrics["core.handshakes_per_build"] = ratio(c["scream_core_handshake_slots_measured_total"], builds)
	if def.Distributed {
		rep.metrics["core.ctrl_fraction"] = ctrl / n
	}
	rep.metrics["dynam.advance_share"] = ratio(float64(get("advance").total), runNS)
	rep.metrics["dynam.events_per_run"] = float64(events) / n
	rep.metrics["dynam.repairs_per_run"] = float64(repairs) / n
	rep.metrics["dynam.rebuilds_per_run"] = float64(rebuilds) / n
	if len(get("rebind").durMS) > 0 {
		rep.metrics["dynam.rebind_ms_p50"] = median(get("rebind").durMS)
	}
	untracedNS := sum(untraced.opWallMS) * 1e6
	rep.metrics["trace.overhead_share"] = runNS/untracedNS - 1

	// Additivity: every run's wall time is its self time plus its epochs.
	self := selfTimes(rec.Spans())
	kids := make(map[int]int64)
	clipped := 0
	for _, s := range rec.Spans() {
		if s.Parent != 0 {
			kids[s.Parent] += s.dur()
		}
	}
	for _, s := range rec.Spans() {
		if s.Name == "run" && self[s.ID]+kids[s.ID] != s.dur() {
			rep.fail("span %d: run self %d + children %d != wall %d ns", s.ID, self[s.ID], kids[s.ID], s.dur())
		}
		if s.Name == "epoch" && self[s.ID] == 0 && kids[s.ID] > s.dur() {
			clipped++
		}
	}
	rep.note("traced %d runs, %d spans; run = self + epochs holds for every run; %d epochs had replayed dynamics longer than their own wall time",
		len(runs), len(rec.Spans()), clipped)
	rep.note("shares of run wall: flow self %.3f, %s %.3f, dynam advance %.3f, traffic %.3f, rebind %.3f",
		rep.metrics["flow.self_share"], layer, rep.metrics[layer+".share"], rep.metrics["dynam.advance_share"],
		rep.metrics["traffic.share"], ratio(float64(get("rebind").total), runNS))
	return rec.WriteJSONL(benchPath("spans-" + b.name + ".jsonl"))
}

// replayDynamics re-runs run i's dynamics timeline over a fresh clone and
// checks the replay applies the same events the run reported.
func (b *flowBench) replayDynamics(rep *report, rec *Recorder, i int, r tracedRunData) error {
	if len(r.changes) == 0 {
		if r.res.FailEvents+r.res.RecoverEvents+r.res.MoveEvents != 0 {
			rep.fail("traced run %d: events applied but no change batch recorded", i)
		}
		return nil
	}
	spec := b.specFor(r.seed)
	dcfg, err := dynamicsConfig(spec)
	if err != nil || dcfg == nil {
		return fmt.Errorf("replay: dynamics config: %v", err)
	}
	net := b.mesh.Network.Clone()
	w, err := dynam.NewWorld(net, b.mesh.Forest, *dcfg)
	if err != nil {
		return err
	}
	// Warm the clone's lazy caches the way the run's scheduler
	// construction did, so the replay times only AdvanceTo.
	def, err := flow.SchedulerDefByName(spec.SchedulerName())
	if err != nil {
		return err
	}
	if _, err := def.New(flow.SchedulerEnv{Channel: net.Channel, Sens: net.Sens, Links: b.mesh.Links,
		K: spec.K, Timing: scream.DefaultTiming(), P: spec.P, Seed: spec.Seed, Channels: 1, Radios: b.mesh.NumRadios()}); err != nil {
		return err
	}
	fails, recovers, moves := 0, 0, 0
	for k, t := range r.changes {
		t0 := rec.now()
		chg, err := w.AdvanceTo(des.Time(t))
		d := rec.now() - t0
		if err != nil {
			return err
		}
		if chg == nil {
			rep.fail("traced run %d: replay found no events at t=%d", i, t)
			continue
		}
		fails += len(chg.Failed)
		recovers += len(chg.Recovered)
		moves += len(chg.Moved)
		// Charge the batch to the epoch it ran in. A static scheduler never
		// rebinds, so where its batches ran is unknown: they become root
		// spans, counted in dynam.advance_share but left inside flow's
		// self time.
		parent := 0
		if len(r.st.rebindParents) == len(r.changes) {
			parent = r.st.rebindParents[k]
		}
		start := int64(0)
		if parent != 0 {
			start = rec.spans[parent-1].Start
		}
		rec.Add(Span{Parent: parent, Name: "advance", Start: start, End: start + d, Agg: true, Count: 1})
	}
	if fails != r.res.FailEvents || recovers != r.res.RecoverEvents || moves != r.res.MoveEvents {
		rep.fail("traced run %d: replay applied %d/%d/%d fail/recover/move events, run reported %d/%d/%d",
			i, fails, recovers, moves, r.res.FailEvents, r.res.RecoverEvents, r.res.MoveEvents)
	}
	return nil
}
