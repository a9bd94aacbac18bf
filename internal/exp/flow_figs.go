package exp

// The dynamic-traffic figure: offered load vs delivered goodput for the
// distributed protocols and the centralized baselines, measured by the
// flow-level simulator (internal/flow) instead of by one-shot schedule
// length. This is the evaluation style of the related work (Vieira et al.,
// Zhou et al.): sustain continuous arrivals and observe what the scheduler
// actually delivers.

import (
	"fmt"

	"scream/internal/core"
	"scream/internal/des"
	"scream/internal/flow"
	"scream/internal/stats"
	"scream/internal/traffic"
)

// flowDensity is the deployment density of the flow figure: the paper's
// sparsest planned scenario, where the physical model admits real spatial
// reuse — the regime in which scheduler quality shows up as goodput.
const flowDensity = 1000

// flowFramesPerEpoch is the schedule-reuse amortization of the flow figure:
// each epoch replays its schedule this many frames before the next control
// phase. An FDD re-schedule costs ~150 data frames of simulated time on this
// scenario, so the value sets how much of that cost the epoch absorbs.
const flowFramesPerEpoch = 64

// flowMaxService is the per-link service quota per control epoch: it bounds
// epoch length under overload so re-scheduling stays responsive.
const flowMaxService = 8

// FlowLoads returns the offered-load sweep (fraction of the greedy
// schedule's capacity) of FigFlowLoad.
func FlowLoads(quick bool) []float64 {
	if quick {
		return []float64{0.5, 1.0, 1.5}
	}
	return []float64{0.3, 0.5, 0.7, 0.85, 1.0, 1.2, 1.5}
}

// flowSchedulerNames are the registry names behind the four curves of the
// flow, churn and channels figures.
var flowSchedulerNames = []string{"greedy", "fdd", "pdd", "tdma"}

// flowScheduler builds one figure curve's scheduler for a scenario through
// the flow-scheduler registry: FDD draws from seed, PDD runs at p = 0.8 from
// seed+1. channels > 1 packs every slot across that many orthogonal channels
// with radios radios per node; 0 or 1 is the single-channel simulator.
func flowScheduler(s *Scenario, tm core.Timing, name string, seed int64, channels, radios int) (flow.Scheduler, error) {
	def, err := flow.SchedulerDefByName(name)
	if err != nil {
		return flow.Scheduler{}, err
	}
	env := flow.SchedulerEnv{
		Channel: s.Net.Channel, Sens: s.Net.Sens, Links: s.Links, Timing: tm,
		Channels: channels, Radios: radios,
	}
	switch name {
	case "fdd":
		env.Seed = seed
	case "pdd":
		env.P = 0.8
		env.Seed = seed + 1
	}
	sc, err := def.New(env)
	if err != nil {
		return flow.Scheduler{}, fmt.Errorf("build %s: %w", name, err)
	}
	return sc, nil
}

// flowSchedulers builds the figure's four curves for one scenario: the
// centralized greedy upper bound, the two distributed protocols at their
// real control cost, and the TDMA floor.
func flowSchedulers(s *Scenario, tm core.Timing, seed int64, channels, radios int) ([]flow.Scheduler, error) {
	out := make([]flow.Scheduler, len(flowSchedulerNames))
	for i, name := range flowSchedulerNames {
		sc, err := flowScheduler(s, tm, name, seed, channels, radios)
		if err != nil {
			return nil, err
		}
		out[i] = sc
	}
	return out, nil
}

// flowCurveNames are FigFlowLoad's series, aligned with flowSchedulers.
func flowCurveNames() []string {
	return []string{"Centralized", "FDD", "PDD p=0.8", "TDMA"}
}

// RunFlowCell runs one (load, seed) cell of the flow figure for every curve
// and returns delivered goodput in packets per second per curve.
func RunFlowCell(load float64, seed int64, quick bool) ([]float64, error) {
	s, err := GridScenario(flowDensity, 4200+seed)
	if err != nil {
		return nil, err
	}
	tm := core.DefaultTiming()
	frame, err := flow.FrameTime(s.Net.Channel, s.Forest, s.Links, tm)
	if err != nil {
		return nil, err
	}
	rate := load / frame.Seconds()
	horizonFrames := 1600
	if quick {
		horizonFrames = 400
	}
	horizon := des.Time(horizonFrames) * frame
	schedulers, err := flowSchedulers(s, tm, seed, 1, 0)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, len(schedulers))
	for ci, sc := range schedulers {
		arrivals := make([]traffic.Arrival, s.Net.NumNodes())
		for u := range arrivals {
			if s.Forest.IsGateway(u) {
				continue
			}
			p, err := traffic.NewPoisson(rate)
			if err != nil {
				return nil, err
			}
			arrivals[u] = p
		}
		res, err := flow.Run(flow.Config{
			Forest:         s.Forest,
			Links:          s.Links,
			Scheduler:      sc,
			Timing:         tm,
			Arrivals:       arrivals,
			Horizon:        horizon,
			Seed:           flow.DeriveSeed(seed, int64(ci)),
			MaxService:     flowMaxService,
			FramesPerEpoch: flowFramesPerEpoch,
		})
		if err != nil {
			return nil, fmt.Errorf("flow cell load=%g seed=%d curve=%s: %w", load, seed, sc.Name, err)
		}
		vals[ci] = res.GoodputPps
	}
	return vals, nil
}

// FigFlowLoad sweeps offered load (as a fraction of the greedy schedule's
// static capacity) and plots the goodput each scheduler actually delivers
// when run dynamically: epoch-based re-scheduling against backlog snapshots,
// real control cost for the distributed protocols, zero (genie) control cost
// for Centralized and TDMA. Below saturation every curve tracks the offered
// line; beyond it each plateaus at its own effective capacity — spatial
// reuse separates Centralized from TDMA, and control overhead separates the
// distributed protocols from Centralized.
func FigFlowLoad(opts Options) (*stats.Figure, error) {
	fig := stats.NewFigure(
		"FlowLoad: Delivered Goodput vs Offered Load (dynamic traffic)",
		"offered load (x static capacity)", "delivered goodput (pkt/s)")
	xs := FlowLoads(opts.Quick)
	names := flowCurveNames()
	err := runGrid(fig, xs, names, opts, func(xi, si int) ([]float64, error) {
		return RunFlowCell(xs[xi], int64(si), opts.Quick)
	})
	if err != nil {
		return nil, err
	}
	return fig, nil
}
