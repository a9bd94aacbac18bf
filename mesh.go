package scream

import (
	"fmt"
	"math"
	"math/rand"

	"scream/internal/core"
	"scream/internal/phys"
	"scream/internal/radio"
	"scream/internal/route"
	"scream/internal/sched"
	"scream/internal/topo"
	"scream/internal/traffic"
)

// RadioParams describes the radio environment of a mesh.
type RadioParams struct {
	PathLossExponent float64 // alpha (paper simulates 3)
	RefLossDB        float64 // path loss at 1 m
	NoiseDBm         float64 // background noise floor
	BetaDB           float64 // SINR threshold
	// CSThresholdDBm is the carrier-sense (energy detect) threshold in
	// dBm. math.NaN() means "explicitly unset": derive it as beta * noise
	// (carrier sensing at decode sensitivity, the paper's rCS = rc), which
	// is what DefaultRadioParams returns. Any finite value — including a
	// literal 0 dBm, which the old 0-means-derive sentinel could not
	// express — is used as given. Note that a RadioParams zero value
	// therefore asks for a 0 dBm threshold; start from
	// DefaultRadioParams() when you want the derived default.
	CSThresholdDBm float64
	ShadowSigmaDB  float64 // log-normal shadowing std dev; 0 disables
	// NumRadios is the number of radio interfaces per node (0 means 1). In
	// multi-channel scheduling a node can be active on at most NumRadios
	// orthogonal channels per slot; each link placement occupies one radio
	// at each endpoint. With one channel the value is irrelevant (a
	// half-duplex node joins at most one transmission per slot regardless).
	// A RadioParams whose other fields are all zero still gets the
	// DefaultRadioParams environment: setting only NumRadios does not
	// silently zero the physics.
	NumRadios int
}

// withDefaults returns r with the propagation environment defaulted when
// every physics field is zero. The all-zero convenience predates NumRadios,
// so a caller setting only the radio count must not lose the default
// physics.
func (r RadioParams) withDefaults() RadioParams {
	p := r
	p.NumRadios = 0
	if p == (RadioParams{}) {
		d := DefaultRadioParams()
		d.NumRadios = r.NumRadios
		return d
	}
	return r
}

// DefaultRadioParams returns the environment used throughout the
// reproduction: alpha = 3, 40 dB reference loss, -96 dBm noise, 10 dB beta,
// and CSThresholdDBm = NaN — carrier sensing derived at decode sensitivity
// (rCS = rc).
func DefaultRadioParams() RadioParams {
	return RadioParams{
		PathLossExponent: 3,
		RefLossDB:        40,
		NoiseDBm:         -96,
		BetaDB:           10,
		CSThresholdDBm:   math.NaN(),
	}
}

func (r RadioParams) toParams() topo.Params {
	p := topo.DefaultParams()
	p.PathLoss.Exponent = r.PathLossExponent
	p.PathLoss.RefLossDB = r.RefLossDB
	p.NoiseMW = phys.DBm(r.NoiseDBm).MilliWatts()
	p.Beta = phys.DB(r.BetaDB).Linear()
	if math.IsNaN(r.CSThresholdDBm) {
		p.CSThresholdMW = p.NoiseMW * p.Beta
	} else {
		p.CSThresholdMW = phys.DBm(r.CSThresholdDBm).MilliWatts()
	}
	p.ShadowSigmaDB = r.ShadowSigmaDB
	return p
}

// GridMeshConfig describes a planned grid deployment.
type GridMeshConfig struct {
	Rows, Cols int
	StepMeters float64
	TxPowerDBm float64 // 0 derives power from the grid step
	Gateways   []int   // node IDs; nil places 4 quadrant gateways
	DemandLo   int     // default 1
	DemandHi   int     // default 10
	Radio      RadioParams
	Seed       int64
	// BalancedRouting uses load-aware parent tie-breaking when building
	// the routing forest (see route.BuildForestBalanced): min-hop paths,
	// evener gateway load, usually a smaller TD.
	BalancedRouting bool
}

// UniformMeshConfig describes an unplanned uniform deployment with
// (optionally) heterogeneous transmit power.
type UniformMeshConfig struct {
	N          int
	SideMeters float64
	MinTxDBm   float64
	MaxTxDBm   float64
	Gateways   []int // node IDs; nil places 4 quadrant gateways
	DemandLo   int
	DemandHi   int
	Radio      RadioParams
	Seed       int64
	// BalancedRouting uses load-aware parent tie-breaking (see
	// GridMeshConfig.BalancedRouting).
	BalancedRouting bool
}

// Mesh is a deployed wireless mesh backbone: topology, routing forest and
// per-link aggregated demands — everything the schedulers consume.
type Mesh struct {
	Network *topo.Network
	Forest  *route.Forest
	Links   []Link
	Demands []int

	gateways []int
	radios   int
	// interf is the selected interference engine configuration (zero value =
	// the exact dense engine). Engines are built on demand from the network's
	// current state — never cached — so topology dynamics and clones always
	// see fresh geometry.
	interf InterferenceSpec
}

// NewGridMesh builds a planned grid mesh per the paper's Section VI setup.
func NewGridMesh(cfg GridMeshConfig) (*Mesh, error) {
	cfg.Radio = cfg.Radio.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var power float64
	if cfg.TxPowerDBm != 0 {
		power = phys.DBm(cfg.TxPowerDBm).MilliWatts()
	}
	net, err := topo.NewGrid(topo.GridConfig{
		Rows: cfg.Rows, Cols: cfg.Cols, Step: cfg.StepMeters,
		TxPowerMW: power,
		Params:    cfg.Radio.toParams(),
	}, rng)
	if err != nil {
		return nil, fmt.Errorf("scream: %w", err)
	}
	return finishMesh(net, cfg.Gateways, cfg.DemandLo, cfg.DemandHi, cfg.Radio.NumRadios, cfg.BalancedRouting, rng)
}

// NewUniformMesh builds an unplanned uniform mesh, re-drawing node positions
// until the communication graph is connected.
func NewUniformMesh(cfg UniformMeshConfig) (*Mesh, error) {
	cfg.Radio = cfg.Radio.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	net, err := topo.NewUniform(topo.UniformConfig{
		N: cfg.N, Side: cfg.SideMeters,
		MinTxDBm: phys.DBm(cfg.MinTxDBm), MaxTxDBm: phys.DBm(cfg.MaxTxDBm),
		Params: cfg.Radio.toParams(),
	}, rng)
	if err != nil {
		return nil, fmt.Errorf("scream: %w", err)
	}
	return finishMesh(net, cfg.Gateways, cfg.DemandLo, cfg.DemandHi, cfg.Radio.NumRadios, cfg.BalancedRouting, rng)
}

// LineMeshConfig describes a line deployment (used by the Theorem 1
// impossibility demonstration).
type LineMeshConfig struct {
	N          int
	StepMeters float64
	RangeSlack float64 // communication range = step * slack (default 1.05)
	Gateways   []int   // nil places a single gateway at node 0
	DemandLo   int
	DemandHi   int
	Radio      RadioParams
	Seed       int64
}

// NewLineMesh builds a line mesh with power derived from the spacing.
func NewLineMesh(cfg LineMeshConfig) (*Mesh, error) {
	cfg.Radio = cfg.Radio.withDefaults()
	net, err := topo.NewLine(cfg.N, cfg.StepMeters, cfg.Radio.toParams(), cfg.RangeSlack)
	if err != nil {
		return nil, fmt.Errorf("scream: %w", err)
	}
	gws := cfg.Gateways
	if gws == nil {
		gws = []int{0}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return finishMesh(net, gws, cfg.DemandLo, cfg.DemandHi, cfg.Radio.NumRadios, false, rng)
}

func finishMesh(net *topo.Network, gateways []int, lo, hi, radios int, balanced bool, rng *rand.Rand) (*Mesh, error) {
	if lo == 0 {
		lo = 1
	}
	if radios <= 0 {
		radios = 1
	}
	if hi == 0 {
		hi = 10
	}
	if gateways == nil {
		var err error
		gateways, err = topo.QuadrantGateways(net)
		if err != nil {
			return nil, fmt.Errorf("scream: %w", err)
		}
	}
	nodeDemand, err := traffic.Uniform(net.NumNodes(), lo, hi, rng)
	if err != nil {
		return nil, fmt.Errorf("scream: %w", err)
	}
	var f *route.Forest
	if balanced {
		f, err = route.BuildForestBalanced(net.Comm, gateways, nodeDemand, rng)
	} else {
		f, err = route.BuildForest(net.Comm, gateways, rng)
	}
	if err != nil {
		return nil, fmt.Errorf("scream: %w", err)
	}
	agg, err := f.AggregateDemand(nodeDemand)
	if err != nil {
		return nil, fmt.Errorf("scream: %w", err)
	}
	links := f.Links()
	demands := make([]int, len(links))
	for i, l := range links {
		demands[i] = agg[l.From]
	}
	// The gateway list is defensively copied: the caller keeps ownership of
	// the slice it passed in, and mutating it later must not re-route the
	// mesh's idea of its gateways.
	return &Mesh{Network: net, Forest: f, Links: links, Demands: demands,
		gateways: append([]int(nil), gateways...), radios: radios}, nil
}

// Clone returns a deep copy of the mesh: a cloned network (positions, powers,
// liveness), fresh link/demand/gateway slices, and the shared routing forest
// (immutable after construction — repairs build new forests, see
// route.Forest). Clones are how concurrent sessions sandbox a common
// deployment: runs on a clone never observe each other.
func (m *Mesh) Clone() *Mesh {
	return &Mesh{
		Network:  m.Network.Clone(),
		Forest:   m.Forest,
		Links:    append([]Link(nil), m.Links...),
		Demands:  append([]int(nil), m.Demands...),
		gateways: append([]int(nil), m.gateways...),
		radios:   m.radios,
		interf:   m.interf,
	}
}

// UseEngine selects the interference engine the mesh's centralized
// schedulers build against (see Engines for the registry). The zero-value
// spec — or one naming "dense" — keeps the exact dense engine, the default.
// Selecting the spatial engine builds it once to surface configuration
// errors (shadowed deployments, invalid geometry) immediately; afterwards
// every schedule build constructs a fresh index from the network's current
// positions, so dynamics and clones never see stale geometry.
func (m *Mesh) UseEngine(spec InterferenceSpec) error {
	if _, err := EngineByName(spec.engineName()); err != nil {
		return err
	}
	if spec.CutoffM < 0 || spec.BucketM < 0 {
		return fmt.Errorf("scream: interference cutoff_m and bucket_m must be non-negative")
	}
	if spec.engineName() == EngineSpatial {
		if _, err := m.Network.SpatialEngine(spec.CutoffM, spec.BucketM); err != nil {
			return fmt.Errorf("scream: %w", err)
		}
	}
	m.interf = spec
	return nil
}

// EngineName returns the registry name of the mesh's selected interference
// engine ("dense" unless UseEngine chose otherwise).
func (m *Mesh) EngineName() string { return m.interf.engineName() }

// engine builds the mesh's selected interference engine over the network's
// current state: the dense channel itself, or a freshly constructed spatial
// index.
func (m *Mesh) engine() (phys.Engine, error) {
	if m.interf.engineName() != EngineSpatial {
		return m.Network.Channel, nil
	}
	idx, err := m.Network.SpatialEngine(m.interf.CutoffM, m.interf.BucketM)
	if err != nil {
		return nil, fmt.Errorf("scream: %w", err)
	}
	return idx, nil
}

// NumNodes returns the number of mesh routers.
func (m *Mesh) NumNodes() int { return m.Network.NumNodes() }

// Gateways returns the gateway node IDs.
func (m *Mesh) Gateways() []int { return append([]int(nil), m.gateways...) }

// TotalDemand returns TD, the serialized schedule length.
func (m *Mesh) TotalDemand() int { return sched.LinearLength(m.Demands) }

// InterferenceDiameter returns ID(G_S) (Definition 2).
func (m *Mesh) InterferenceDiameter() int { return m.Network.InterferenceDiameter() }

// NeighborDensity returns rho(G) (Definition 6).
func (m *Mesh) NeighborDensity() float64 { return m.Network.NeighborDensity() }

// NumRadios returns the per-node radio count (RadioParams.NumRadios,
// normalized to at least 1).
func (m *Mesh) NumRadios() int { return m.radios }

// GreedySchedule runs the centralized GreedyPhysical baseline over the
// mesh's selected interference engine (see UseEngine; dense by default).
func (m *Mesh) GreedySchedule(ord Ordering) (*Schedule, error) {
	eng, err := m.engine()
	if err != nil {
		return nil, err
	}
	return sched.GreedyPhysical(eng, m.Links, m.Demands, ord)
}

// GreedyScheduleChannels runs the multi-channel centralized greedy over the
// given number of orthogonal copies of the mesh's selected interference
// engine (see UseEngine), with the mesh's per-node radio count. With
// channels == 1 (and one radio) it is exactly GreedySchedule.
func (m *Mesh) GreedyScheduleChannels(channels int, ord Ordering) (*Schedule, error) {
	eng, err := m.engine()
	if err != nil {
		return nil, err
	}
	return sched.GreedyPhysicalMulti(eng, channels, m.radios, m.Links, m.Demands, ord)
}

// VerifyChannels checks a channel-assigned schedule against the exact
// multi-channel interference model (per-channel SINR on the dense channel,
// per-node radio budget) and the mesh's demands, whichever engine built it.
func (m *Mesh) VerifyChannels(s *Schedule, channels int) error {
	return s.VerifyMulti(m.Network.Channel, channels, m.radios, m.Links, m.Demands)
}

// Verify checks a schedule against the physical interference model and the
// mesh's demands.
func (m *Mesh) Verify(s *Schedule) error {
	return s.Verify(m.Network.Channel, m.Links, m.Demands)
}

// Improvement returns the schedule's % improvement over the linear schedule.
func (m *Mesh) Improvement(s *Schedule) float64 {
	return sched.ImprovementOverLinear(s.Length(), m.TotalDemand())
}

// GreedyProtocolSchedule schedules this mesh's demands under the *protocol*
// interference model (CSMA/CA-style exclusion regions at carrier-sense
// range) instead of SINR feasibility. Comparing its length against
// GreedySchedule quantifies the capacity the physical model recovers — the
// motivation of the paper's introduction.
func (m *Mesh) GreedyProtocolSchedule(ord Ordering) (*Schedule, error) {
	pm := phys.NewProtocolModel(m.Network.Channel, m.Network.Params.CSThresholdMW)
	return sched.GreedyProtocol(pm, m.Links, m.Demands, ord, m.Network.Channel)
}

// CountInfeasibleSlots returns how many slots of s violate the full
// physical interference model — useful for quantifying how unsafe schedules
// from weaker models (protocol exclusion, data-only SINR) really are.
func (m *Mesh) CountInfeasibleSlots(s *Schedule) int {
	return sched.CountInfeasibleSlots(m.Network.Channel, s)
}

// OptimalLength computes the exact minimum schedule length for this mesh's
// links with unit demands via exponential dynamic programming. Only small
// meshes (at most 20 links) are supported; see sched.OptimalLength.
func (m *Mesh) OptimalLength() (int, error) {
	unit := make([]int, len(m.Links))
	for i := range unit {
		unit[i] = 1
	}
	return sched.OptimalLength(m.Network.Channel, m.Links, unit)
}

// GreedyScheduleFor runs GreedyPhysical on an arbitrary link set over this
// mesh's channel — an escape hatch for workloads that are not gateway
// forests (the paper notes the protocols schedule arbitrary link sets "up
// to straightforward modifications").
func (m *Mesh) GreedyScheduleFor(links []Link, demands []int, ord Ordering) (*Schedule, error) {
	eng, err := m.engine()
	if err != nil {
		return nil, err
	}
	return sched.GreedyPhysical(eng, links, demands, ord)
}

// LocalizedGreedyFor runs the k-hop-localized greedy of the Theorem 1
// demonstration on an arbitrary link set. Its schedules may be infeasible —
// that is the point of the theorem; check with VerifyFor.
func (m *Mesh) LocalizedGreedyFor(links []Link, demands []int, k int, ord Ordering) (*Schedule, error) {
	return sched.LocalizedGreedy(m.Network.Channel, m.Network.Comm, links, demands, k, ord)
}

// VerifyFor checks a schedule against the physical interference model for
// an arbitrary link set and demands.
func (m *Mesh) VerifyFor(links []Link, demands []int, s *Schedule) error {
	return s.Verify(m.Network.Channel, links, demands)
}

// ProtocolOptions tunes a distributed protocol run.
type ProtocolOptions struct {
	// Timing is the slot timing model; zero value uses DefaultTiming.
	Timing Timing
	// K is the SCREAM length in slots; 0 uses the true interference
	// diameter ID(G_S).
	K int
	// Seed drives PDD's coin flips and the packet-level backend's clock
	// offsets.
	Seed int64
	// PacketLevel runs the protocol over the packet-level radio backend
	// (skewed clocks, energy detection) instead of the ideal backend.
	PacketLevel bool
	// ASAPSeal enables the slot-sealing extension (see DESIGN.md).
	ASAPSeal bool
	// Channels is the number of orthogonal data channels the protocol
	// schedules over (0 or 1 = the paper's single-channel protocol). The
	// per-node radio budget comes from the mesh's RadioParams.NumRadios.
	// Multi-channel runs require the ideal backend.
	Channels int
}

func (m *Mesh) backend(opts ProtocolOptions) (Backend, error) {
	tm := opts.Timing
	if tm == (Timing{}) {
		tm = DefaultTiming()
	}
	k := opts.K
	if k == 0 {
		k = m.InterferenceDiameter()
		if k <= 0 {
			return nil, fmt.Errorf("scream: sensitivity graph not strongly connected")
		}
	}
	if opts.PacketLevel {
		return radio.New(m.Network.Channel, m.Network.Params.CSThresholdMW, k, tm,
			tm.SkewBound, rand.New(rand.NewSource(opts.Seed+1)))
	}
	return core.NewIdealBackend(m.Network.Channel, m.Network.Sens, k, tm, false)
}

// RunFDD runs the Fully Deterministic Distributed protocol.
func (m *Mesh) RunFDD(opts ProtocolOptions) (*Result, error) {
	return m.run(core.Config{Variant: core.FDD, ASAPSeal: opts.ASAPSeal}, opts)
}

// RunPDD runs the Partially Deterministic Distributed protocol with
// activation probability p.
func (m *Mesh) RunPDD(p float64, opts ProtocolOptions) (*Result, error) {
	return m.run(core.Config{
		Variant:     core.PDD,
		Probability: p,
		RNG:         rand.New(rand.NewSource(opts.Seed)),
		ASAPSeal:    opts.ASAPSeal,
	}, opts)
}

func (m *Mesh) run(cfg core.Config, opts ProtocolOptions) (*Result, error) {
	if opts.Channels > 1 && opts.PacketLevel {
		return nil, fmt.Errorf("scream: multi-channel protocol runs require the ideal backend")
	}
	b, err := m.backend(opts)
	if err != nil {
		return nil, err
	}
	cfg.Links = m.Links
	cfg.Demands = m.Demands
	cfg.Backend = b
	cfg.NumChannels = opts.Channels
	cfg.NumRadios = m.radios
	return core.Run(cfg)
}

// Scream runs one SCREAM primitive over the mesh: vars[i] is node i's input
// bit; the returned slice holds every node's output (the network-wide OR
// when K >= ID). It uses the same backend selection as the protocols.
func (m *Mesh) Scream(vars []bool, opts ProtocolOptions) ([]bool, error) {
	if len(vars) != m.NumNodes() {
		return nil, fmt.Errorf("scream: %d vars for %d nodes", len(vars), m.NumNodes())
	}
	b, err := m.backend(opts)
	if err != nil {
		return nil, err
	}
	return b.Scream(vars), nil
}

// LeaderElect runs the paper's bitwise leader election among the nodes with
// participating[i] == true (IDs are the node indices) and returns the
// winner, or -1 when nobody participates.
func (m *Mesh) LeaderElect(participating []bool, opts ProtocolOptions) (int, error) {
	if len(participating) != m.NumNodes() {
		return -1, fmt.Errorf("scream: %d flags for %d nodes", len(participating), m.NumNodes())
	}
	b, err := m.backend(opts)
	if err != nil {
		return -1, err
	}
	ids := make([]uint64, m.NumNodes())
	for i := range ids {
		ids[i] = uint64(i)
	}
	return core.LeaderElect(b, core.IDBitsFor(m.NumNodes()), ids, participating), nil
}
