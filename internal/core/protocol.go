package core

import (
	"fmt"
	"math/rand"

	"scream/internal/des"
	"scream/internal/obs"
	"scream/internal/phys"
	"scream/internal/sched"
)

// State is a node's protocol state (Figure 1 of the paper).
type State int

// Node states. TERMINATE is reached by every node simultaneously when the
// controller-existence SCREAM comes back empty.
const (
	Dormant State = iota + 1
	Control
	Active
	Allocated
	Tried
	Complete
	Terminate
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Dormant:
		return "DORMANT"
	case Control:
		return "CONTROL"
	case Active:
		return "ACTIVE"
	case Allocated:
		return "ALLOCATED"
	case Tried:
		return "TRIED"
	case Complete:
		return "COMPLETE"
	case Terminate:
		return "TERMINATE"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Variant selects the active-set strategy.
type Variant int

const (
	// PDD activates each dormant node independently with probability P
	// in every step (Section III-C).
	PDD Variant = iota + 1
	// FDD activates exactly one dormant node per step, chosen by
	// network-wide leader election, which makes the protocol emulate the
	// centralized GreedyPhysical exactly (Section III-D, Theorem 4).
	FDD
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case PDD:
		return "PDD"
	case FDD:
		return "FDD"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Config parameterizes a protocol run.
type Config struct {
	Variant Variant
	// Links[i] is the forest edge owned by node Links[i].From; Demands[i]
	// is its aggregated demand. Nodes that own no link (gateways) simply
	// do not appear as owners.
	Links   []phys.Link
	Demands []int
	// Backend executes SCREAMs and handshake slots (and accounts time).
	Backend Backend
	// IDBits is the ID width for leader election; 0 derives it from the
	// node count (the paper's id_bits = ln n). Negative widths are rejected.
	IDBits int
	// Probability is PDD's activation probability p.
	Probability float64
	// RNG drives PDD's coin flips; required for PDD.
	RNG *rand.Rand
	// MaxRounds aborts pathological runs; 0 means 10*TD + 100.
	MaxRounds int
	// ASAPSeal is an extension ablation (not in the paper): seal the slot
	// as soon as no dormant nodes remain instead of running the final
	// empty selection step.
	ASAPSeal bool
	// Observer receives protocol events; zero value disables tracing.
	Observer Observer
	// Metrics, when non-nil, receives per-run counters (rounds, steps,
	// elections, analytic and backend-measured SCREAM/handshake counts,
	// execution ticks). Metrics are write-only: no protocol decision ever
	// reads them, so enabling them cannot change any result.
	Metrics *obs.Registry
	// Trace, when non-nil, receives structured protocol events
	// (controller_elected, handshake, slot_sealed) timestamped in simulated
	// ticks. Like Metrics, tracing is write-only.
	Trace *obs.Tracer
	// NumChannels is the number of orthogonal data channels (0 or 1 runs
	// the paper's single-channel protocol unchanged). With C > 1 each round
	// seals a multi-channel slot built in C sequential channel phases;
	// control traffic (SCREAMs, elections) rides the designated control
	// channel (channel 0) at unchanged cost, while data handshakes are
	// evaluated per channel. See DESIGN.md "Multi-channel scheduling".
	NumChannels int
	// NumRadios bounds how many channels a node may be active on per slot
	// (0 means 1). Only consulted when NumChannels > 1.
	NumRadios int
}

// Result is the outcome of a protocol run.
type Result struct {
	Schedule *sched.Schedule
	// Rounds is the number of rounds = slots scheduled.
	Rounds int
	// Steps is the total number of greedy augmentation steps across all
	// rounds (each costs one handshake slot plus two SCREAMs, plus an
	// election in FDD).
	Steps int
	// Elections is the number of leader elections run.
	Elections int
	// Screams is the number of SCREAM primitives run.
	Screams int
	// ExecTime is the total simulated protocol execution time.
	ExecTime des.Time
}

// protoRun is the validated, initialized per-run state shared by the
// single-channel and multi-channel protocol loops: the owner/link mapping,
// election identities, round budget, node states and the counted primitive
// wrappers. Both loops consume it; only the slot-construction structure
// differs.
type protoRun struct {
	cfg         Config
	n           int
	linkOf      []int // owner node -> link index, -1 for none
	totalDemand int
	idBits      int
	ids         []uint64
	maxRounds   int
	// fast is the backend as a fast-mode IdealBackend (nil otherwise): the
	// consensus SCREAMs then ask it for the OR directly instead of
	// materialising every node's identical view.
	fast *IdealBackend

	res       *Result
	state     []State
	remaining []int
	round     int
}

// newProtoRun validates the link/demand configuration and initializes the
// shared run state.
func newProtoRun(cfg Config) (*protoRun, error) {
	n := cfg.Backend.NumNodes()
	linkOf := make([]int, n)
	for i := range linkOf {
		linkOf[i] = -1
	}
	totalDemand := 0
	for i, l := range cfg.Links {
		if l.From < 0 || l.From >= n || l.To < 0 || l.To >= n {
			return nil, fmt.Errorf("core: link %v out of range for %d nodes", l, n)
		}
		if linkOf[l.From] != -1 {
			return nil, fmt.Errorf("core: node %d owns more than one link", l.From)
		}
		if cfg.Demands[i] < 0 {
			return nil, fmt.Errorf("core: link %v has negative demand", l)
		}
		linkOf[l.From] = i
		totalDemand += cfg.Demands[i]
	}

	idBits := cfg.IDBits
	if idBits == 0 {
		idBits = IDBitsFor(n)
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = 10*totalDemand + 100
	}

	p := &protoRun{
		cfg: cfg, n: n, linkOf: linkOf, totalDemand: totalDemand,
		idBits: idBits, ids: ids, maxRounds: maxRounds,
		fast:      fastIdeal(cfg.Backend),
		res:       &Result{Schedule: sched.NewSchedule()},
		state:     make([]State, n),
		remaining: append([]int(nil), cfg.Demands...),
	}
	for u := 0; u < n; u++ {
		if linkOf[u] >= 0 && p.remaining[linkOf[u]] > 0 {
			p.state[u] = Dormant
		} else {
			p.state[u] = Complete
		}
	}
	return p, nil
}

func (p *protoRun) setState(u int, to State) {
	if p.state[u] == to {
		return
	}
	if p.cfg.Observer.StateChange != nil {
		p.cfg.Observer.StateChange(p.round, u, p.state[u], to)
	}
	p.state[u] = to
}

// scream runs a SCREAM whose result no decision reads (the ASAPSeal
// ablation's still-dormant SCREAM): it is run only to be billed.
func (p *protoRun) scream(vars []bool) {
	p.res.Screams++
	if p.fast != nil {
		p.fast.screamOR(vars)
		return
	}
	p.cfg.Backend.Scream(vars)
}

// screamConsensus runs a SCREAM whose result steers control flow. With
// a correct SCREAM (K >= ID, adequate SMBytes, guarded slots) every
// node computes the same OR; if views diverge the distributed protocol
// has genuinely broken, which we surface as an error instead of
// silently picking a view (this is what the failure-injection tests
// observe when K < ID or the skew guard is violated). A fast-mode
// IdealBackend guarantees agreement, so it is asked for the OR directly.
func (p *protoRun) screamConsensus(vars []bool, what string) (bool, error) {
	p.res.Screams++
	if p.fast != nil {
		return p.fast.screamOR(vars), nil
	}
	result := p.cfg.Backend.Scream(vars)
	v := result[0]
	for i, r := range result {
		if r != v {
			return false, fmt.Errorf("core: SCREAM divergence on %s: node 0 sees %v, node %d sees %v (K too small or skew guard violated)", what, v, i, r)
		}
	}
	return v, nil
}

func (p *protoRun) elect(participating []bool) int {
	p.res.Elections++
	p.res.Screams += ElectionScreams(p.idBits)
	return LeaderElect(p.cfg.Backend, p.idBits, p.ids, participating)
}

// Run executes the distributed protocol to completion and returns the
// computed schedule with execution statistics. The run is a faithful
// lock-step simulation of all nodes: every SCREAM, election and handshake
// the real protocol would perform is executed against the backend (and
// therefore billed for time), and all control decisions are derived from
// those primitives' outputs only.
func Run(cfg Config) (*Result, error) {
	if len(cfg.Links) != len(cfg.Demands) {
		return nil, fmt.Errorf("core: %d links vs %d demands", len(cfg.Links), len(cfg.Demands))
	}
	switch cfg.Variant {
	case PDD:
		if cfg.Probability <= 0 || cfg.Probability > 1 {
			return nil, fmt.Errorf("core: PDD needs probability in (0,1], got %v", cfg.Probability)
		}
		if cfg.RNG == nil {
			return nil, fmt.Errorf("core: PDD needs an RNG")
		}
	case FDD:
	default:
		return nil, fmt.Errorf("core: unknown variant %v", cfg.Variant)
	}
	if cfg.IDBits < 0 {
		return nil, fmt.Errorf("core: IDBits must be non-negative, got %d", cfg.IDBits)
	}
	p, err := newProtoRun(cfg)
	if err != nil {
		return nil, err
	}
	before := snapshotBackend(cfg.Backend)
	var res *Result
	if cfg.NumChannels > 1 {
		res, err = p.runMulti()
	} else {
		res, err = p.runSingle()
	}
	if err != nil {
		return nil, err
	}
	publishRun(&cfg, res, before)
	traceProtocol(&cfg, res, before)
	return res, nil
}

// runSingle is the paper's single-channel protocol loop.
func (p *protoRun) runSingle() (*Result, error) {
	cfg := p.cfg
	n := p.n
	linkOf := p.linkOf
	b := cfg.Backend
	res := p.res
	state := p.state
	remaining := p.remaining
	setState := p.setState
	scream := p.scream
	screamConsensus := p.screamConsensus
	elect := p.elect

	// Scratch buffers for the admission loop, reused across steps: the
	// backend's incremental engine makes each handshake O(k·Δ), so the
	// step loop itself must not churn allocations either.
	vars := make([]bool, n)
	part := make([]bool, n)
	hsLinks := make([]phys.Link, 0, n)
	hsOwners := make([]int, 0, n)
	hsOK := make([]bool, n)
	released := true
	controller := -1

	for ; ; p.round++ {
		if p.round >= p.maxRounds {
			return nil, fmt.Errorf("core: no termination after %d rounds (TD=%d); check feasibility of individual links", p.round, p.totalDemand)
		}

		if released {
			// Controller election among all nodes with pending demand.
			for u := 0; u < n; u++ {
				part[u] = state[u] != Complete
			}
			winner := elect(part)
			// Controller-existence SCREAM: the winner (if any) screams.
			for u := range vars {
				vars[u] = u == winner
			}
			exists, err := screamConsensus(vars, "controller existence")
			if err != nil {
				return nil, err
			}
			if !exists {
				// Nobody claimed control: every node's demand is
				// satisfied, all transition to TERMINATE.
				break
			}
			controller = winner
			if cfg.Observer.ControllerElected != nil {
				cfg.Observer.ControllerElected(p.round, controller)
			}
			p.traceEmit("controller_elected", obs.N("node", controller))
			setState(controller, Control)
		}

		slotSpan := p.beginSlot()

		// GreedyScheduleSlot: reset non-complete, non-control nodes.
		for u := 0; u < n; u++ {
			if state[u] != Complete && state[u] != Control {
				setState(u, Dormant)
			}
		}

		for {
			// SelectActive.
			switch cfg.Variant {
			case PDD:
				for u := 0; u < n; u++ {
					if state[u] == Dormant && cfg.RNG.Float64() < cfg.Probability {
						setState(u, Active)
					}
				}
			case FDD:
				for u := 0; u < n; u++ {
					part[u] = state[u] == Dormant
				}
				if winner := elect(part); winner >= 0 {
					setState(winner, Active)
				}
			}

			// Handshake slot over every tentatively or firmly scheduled link.
			hsLinks = hsLinks[:0]
			hsOwners = hsOwners[:0]
			for u := 0; u < n; u++ {
				if state[u] == Active || state[u] == Allocated || state[u] == Control {
					hsLinks = append(hsLinks, cfg.Links[linkOf[u]])
					hsOwners = append(hsOwners, u)
				}
			}
			res.Steps++
			outcome := b.HandshakeSlot(hsLinks)

			// Verification SCREAM: previously scheduled edges veto when
			// their handshake failed under the newcomers' interference.
			// hsOK is only ever read for this step's owners, so stale
			// entries from earlier steps need no clearing.
			for u := range vars {
				vars[u] = false
			}
			for i, u := range hsOwners {
				hsOK[u] = outcome[i]
				if (state[u] == Allocated || state[u] == Control) && !outcome[i] {
					vars[u] = true
				}
			}
			veto, err := screamConsensus(vars, "handshake veto")
			if err != nil {
				return nil, err
			}
			if cfg.Trace != nil {
				okCount := 0
				for _, ok := range outcome {
					if ok {
						okCount++
					}
				}
				p.traceEmit("handshake",
					obs.N("links", len(hsLinks)), obs.N("ok", okCount), obs.B("veto", veto))
			}

			// Actives join or are discarded.
			for u := 0; u < n; u++ {
				if state[u] != Active {
					continue
				}
				if !veto && hsOK[u] {
					setState(u, Allocated)
				} else {
					setState(u, Tried)
				}
			}

			// Still-actives SCREAM: dormant nodes keep the slot open.
			if cfg.ASAPSeal {
				// Extension: local decision replaced by the same SCREAM,
				// but run only when some node is still dormant, saving
				// the final empty round-trip.
				still := false
				for u := 0; u < n; u++ {
					if state[u] == Dormant {
						still = true
						break
					}
				}
				if !still {
					break
				}
				for u := 0; u < n; u++ {
					vars[u] = state[u] == Dormant
				}
				scream(vars)
				continue
			}
			for u := 0; u < n; u++ {
				vars[u] = state[u] == Dormant
			}
			still, err := screamConsensus(vars, "still-dormant")
			if err != nil {
				return nil, err
			}
			if !still {
				break
			}
		}

		// Seal the slot: allocated and control links transmit in it.
		var slot []phys.Link
		for u := 0; u < n; u++ {
			if state[u] == Allocated || state[u] == Control {
				li := linkOf[u]
				slot = append(slot, cfg.Links[li])
				remaining[li]--
			}
		}
		res.Schedule.AppendSlot(slot)
		res.Rounds++
		if cfg.Observer.SlotSealed != nil {
			cfg.Observer.SlotSealed(p.round, slot)
		}
		p.endSlot(slotSpan, len(slot))

		// Control-release SCREAM: the controller announces whether its
		// demand is now satisfied.
		ctrlDone := remaining[linkOf[controller]] == 0
		for u := range vars {
			vars[u] = u == controller && ctrlDone
		}
		rel, err := screamConsensus(vars, "control release")
		if err != nil {
			return nil, err
		}
		released = rel

		// State transitions for the next round.
		for u := 0; u < n; u++ {
			li := linkOf[u]
			if li >= 0 && remaining[li] == 0 {
				setState(u, Complete)
				continue
			}
			if u == controller && !released {
				continue // stays CONTROL
			}
			if state[u] != Complete {
				setState(u, Dormant)
			}
		}
		if released {
			controller = -1
		}
	}

	res.ExecTime = b.Elapsed()
	return res, nil
}
