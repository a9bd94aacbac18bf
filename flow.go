package scream

// The flow-level dynamic traffic run: a mesh's schedulers over simulated time
// under continuous packet arrivals — per-link FIFO queues, gateway forwarding
// along the routing forest, epoch-based re-scheduling against backlog
// snapshots, and goodput/delay/backlog metrics. A run is described by a
// ScenarioSpec and executed by Run/RunWith. See internal/flow and the
// "Dynamic traffic" section of DESIGN.md.

import (
	"context"
	"fmt"

	"scream/internal/dynam"
	"scream/internal/flow"
	"scream/internal/obs"
	"scream/internal/phys"
	"scream/internal/traffic"
)

// Flow-related aliases re-exported from internal packages.
type (
	// FlowResult is the outcome of a dynamic traffic run: goodput, delay
	// percentiles, backlog and control-overhead accounting.
	FlowResult = flow.Result
	// EpochUpdate is the per-epoch progress snapshot handed to
	// RunOptions.OnEpoch — the streaming hook of interactive callers (the
	// screamd daemon's epoch stream is exactly these, serialized).
	EpochUpdate = flow.EpochUpdate
)

// runFlow is the run half of RunWith: it drains the given arrivals on m with
// the spec's scheduler until the horizon. The spec must already be valid and
// the arrivals built for m. With spec.Dynamics set, node churn and mobility
// run underneath on a private clone of the mesh's network — the Mesh is never
// mutated. The context is checked once per driver cycle; cancellation aborts
// the run with an error wrapping ctx.Err().
func runFlow(ctx context.Context, spec ScenarioSpec, m *Mesh, arrivals []traffic.Arrival, o RunOptions) (*FlowResult, error) {
	tm := DefaultTiming()
	horizon := secsToSim(spec.HorizonSec)
	// Effective observability sinks: an explicit per-run registry wins
	// (test isolation); otherwise the process default installed by
	// EnableRuntimeMetrics, which is nil unless a CLI opted in.
	metrics := o.Metrics
	if metrics == nil {
		metrics = obs.Default()
	}
	trace := o.Trace
	// The network view the run operates on: the mesh's own for static runs,
	// an exclusively-owned clone when dynamics mutate it. Schedulers must be
	// built over the same view the dynamics world mutates.
	net := m.Network
	var (
		world      *dynam.World
		repairCost SimTime
	)
	dcfg, err := spec.Dynamics.config(horizon, spec.Seed)
	if err != nil {
		return nil, err
	}
	if dcfg != nil {
		net = m.Network.Clone()
		world, err = dynam.NewWorld(net, m.Forest, *dcfg)
		if err != nil {
			return nil, fmt.Errorf("scream: %w", err)
		}
		world.SetObs(metrics, trace)
		k := spec.K
		if k == 0 {
			k = net.InterferenceDiameter()
		}
		repairCost = tm.RepairCost(k)
	}
	// The interference engine the centralized schedulers build against: nil
	// keeps the dense channel (the default, bit-identical to every run before
	// engines existed). A spatial mesh gets a fresh index over the run's
	// network view; under dynamics the world keeps it in lockstep with churn
	// and mobility, and the epoch scheduler re-reads it on every build.
	var engine phys.Engine
	if m.EngineName() == EngineSpatial {
		idx, err := net.SpatialEngine(m.interf.CutoffM, m.interf.BucketM)
		if err != nil {
			return nil, fmt.Errorf("scream: %w", err)
		}
		if world != nil {
			world.AttachSpatial(idx)
		}
		engine = idx
	}
	channels := spec.Channels
	if channels <= 0 {
		channels = 1
	}
	// Scheduler construction goes through the registry (internal/flow
	// SchedulerDefs): the same table flowsim, figgen and the screamd daemon
	// enumerate.
	def, err := flow.SchedulerDefByName(spec.SchedulerName())
	if err != nil {
		return nil, fmt.Errorf("scream: %w", err)
	}
	scheduler, err := def.New(flow.SchedulerEnv{
		Channel:  net.Channel,
		Engine:   engine,
		Sens:     net.Sens,
		Links:    m.Links,
		K:        spec.K,
		Timing:   tm,
		P:        spec.P,
		Seed:     spec.Seed,
		Channels: channels,
		Radios:   m.radios,
		Metrics:  metrics,
		Trace:    trace,
	})
	if err != nil {
		return nil, fmt.Errorf("scream: %w", err)
	}
	cfg := flow.Config{
		Forest:         m.Forest,
		Links:          m.Links,
		Scheduler:      scheduler,
		Timing:         tm,
		Arrivals:       arrivals,
		Horizon:        horizon,
		Seed:           spec.Seed,
		MaxQueue:       spec.MaxQueue,
		MaxService:     spec.MaxService,
		FramesPerEpoch: spec.FramesPerEpoch,
		IdleWait:       secsToSim(spec.IdleWaitSec),
		Dynamics:       world,
		RepairCost:     repairCost,
		Metrics:        metrics,
		Trace:          trace,
		OnEpoch:        o.OnEpoch,
	}
	if o.Perf {
		cfg.Perf = obs.NewPerf(metrics, scheduler.Name)
		trace.EnableWallClock(nil) // nil-safe; WallNow
	}
	if ctx != nil && ctx.Done() != nil {
		cfg.Ctx = ctx
	}
	res, err := flow.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("scream: %w", err)
	}
	return res, nil
}

// FlowFrameTime returns the mesh's capacity reference: the duration of one
// greedy frame delivering one end-to-end packet per non-gateway node. A
// per-node arrival rate of x/FlowFrameTime offers x times the static
// schedule's sustainable load (TrafficSpec.Load and the x axis of
// FigFlowLoad).
func (m *Mesh) FlowFrameTime(tm Timing) (SimTime, error) {
	if tm == (Timing{}) {
		tm = DefaultTiming()
	}
	frame, err := flow.FrameTime(m.Network.Channel, m.Forest, m.Links, tm)
	if err != nil {
		return 0, fmt.Errorf("scream: %w", err)
	}
	return frame, nil
}
