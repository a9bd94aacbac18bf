package phys

// SlotState is the incremental SINR feasibility engine: it maintains, for
// one slot under construction, the running data-sub-slot and ACK-sub-slot
// interference sums of every admitted link plus an endpoint-occupancy count
// per node, over an interference Engine. CanAdd and Add are O(k) for a slot
// holding k links, against the O(k^2) of re-running Channel.FeasibleSet
// (and O(k^2) per handshake evaluation via Channel.HandshakeOutcome) from
// scratch; those naive routines remain the reference implementations the
// property tests compare against. Mark/Rollback and Reset undo admissions
// exactly — the protocols' tentative-handshake pattern.
//
// CanAdd and Add keep two loop bodies for the two engine families. When the
// engine is the dense *Channel, they read the channel's flat cached RX-power
// matrix directly (the rx field) — the original hot path, preserved
// byte-for-byte for both determinism and the benchmark gate. Any other
// Engine goes through the interface: SignalMW for the favorable side of each
// inequality, InterfMW for interference terms, so a conservative engine (one
// that over-estimates InterfMW) only ever rejects more than the dense path.
// The loops stay separate because both measured ways of merging them cost
// the dense path dearly (BenchmarkSlotStateVsNaive/grid64/incremental, Go
// 1.24 on a 2-core x86-64 Xeon: ~0.85 µs with the split loops): one generic
// body over value-type engines went through the generic dictionary and ran
// ~2.4x slower (~2.1 µs), and a single body branching on rx per pair ran
// 25-40% slower (~1.05-1.3 µs). Outcomes, whose only caller runs on the
// dense channel, has the matrix body alone.
//
// The sums are accumulated incrementally (in admission order) rather than
// recomputed per query (in index order), so individual float64 sums may
// differ from the naive path in the last ulp; every admission margin in the
// model is orders of magnitude wider, and the property tests fuzz operation
// sequences to assert the decisions always agree.
//
// A SlotState is not safe for concurrent use.
type SlotState struct {
	eng Engine
	rx  []float64 // dense fast path: the channel's flat n*n RX matrix; nil for non-dense engines
	n   int

	beta  float64
	noise float64

	links   []Link
	dataSum []float64 // dataSum[i]: interference at links[i].To from the other data senders
	ackSum  []float64 // ackSum[i]: interference at links[i].From from the other ACK senders

	// busy[u] counts slot links with u as an endpoint. Only Outcomes needs
	// it (conflict detection over sets that may hold conflicting links), so
	// it is allocated lazily: greedy schedulers create thousands of
	// CanAdd/Add-only slots and never pay for it.
	busy []int32

	ignoreAck bool

	// Single-level undo support (Mark/Rollback).
	marked    int
	savedData []float64
	savedAck  []float64

	// Scratch buffers for Outcomes.
	dataOK []bool
	out    []bool
	failed []int

	// Inline storage backing links/dataSum/ackSum while the slot is small:
	// greedy schedulers build hundreds of mostly 1-4 link slots per
	// schedule, which this keeps entirely off the heap. Because the slices
	// alias this storage, an initialized SlotState must not be copied.
	linksBuf [4]Link
	dataBuf  [4]float64
	ackBuf   [4]float64
}

// NewSlotState returns an empty slot bound to engine e.
func NewSlotState(e Engine) *SlotState {
	s := new(SlotState)
	s.Init(e)
	return s
}

// Init (re-)binds s to engine e as an empty slot. When e is the dense
// *Channel the matrix fast path is selected. Init exists so callers that
// build many slots (greedy schedulers construct one per schedule slot) can
// hold them in slabs without a heap allocation per slot.
func (s *SlotState) Init(e Engine) {
	if s.eng != nil {
		// Re-initialization: clear everything a previous life may have
		// dirtied. Fresh (zero-value) states — e.g. slab-allocated slots in
		// the greedy schedulers — skip this full-struct write.
		*s = SlotState{}
	}
	s.eng = e
	s.n = e.NumNodes()
	s.beta = e.Beta()
	s.noise = e.NoiseMW()
	s.marked = -1
	s.links = s.linksBuf[:0]
	s.dataSum = s.dataBuf[:0]
	s.ackSum = s.ackBuf[:0]
	if c, ok := e.(*Channel); ok {
		s.rx = c.rxMatrix()
	}
}

// InitDataOnly is Init with the ACK sub-slot inequality disabled. It exists
// for the ablation quantifying how much the paper's link-layer-reliability
// extension of the interference model matters: slots it accepts may be
// infeasible under the full model.
func (s *SlotState) InitDataOnly(e Engine) {
	s.Init(e)
	s.ignoreAck = true
}

// Len returns the number of links currently in the slot.
func (s *SlotState) Len() int { return len(s.links) }

// Links returns a copy of the links currently in the slot, in admission
// order.
func (s *SlotState) Links() []Link {
	out := make([]Link, len(s.links))
	copy(out, s.links)
	return out
}

// AppendLinks appends the links currently in the slot to dst, in admission
// order, and returns the extended slice.
func (s *SlotState) AppendLinks(dst []Link) []Link { return append(dst, s.links...) }

// CanAdd reports whether adding l keeps the slot feasible: l must not share
// an endpoint with any admitted link, l itself must clear both SINR
// inequalities against the current slot, and every admitted link must
// survive l's added data and ACK interference. For a feasible current slot
// this is exactly FeasibleSet(Links() + l) on the dense engine, and a
// conservative under-approximation of it on an over-estimating engine. O(k).
func (s *SlotState) CanAdd(l Link) bool {
	if m := slotMetrics.Load(); m != nil {
		m.canAdd.Inc()
	}
	if l.From == l.To {
		return false
	}
	beta, noise := s.beta, s.noise
	if rx := s.rx; rx != nil {
		n := s.n
		// The new link's own inequalities (and primary conflicts), first: on
		// the dominant path — a greedy scheduler probing successive full slots
		// — this rejects after 2 loads per admitted link.
		dataInterf, ackInterf := 0.0, 0.0
		for _, m := range s.links {
			if l.From == m.From || l.From == m.To || l.To == m.From || l.To == m.To {
				return false
			}
			dataInterf += rx[m.From*n+l.To]
			ackInterf += rx[m.To*n+l.From]
		}
		if rx[l.From*n+l.To] < beta*(noise+dataInterf) {
			return false
		}
		if !s.ignoreAck && rx[l.To*n+l.From] < beta*(noise+ackInterf) {
			return false
		}
		// Existing links under the extra interference from l.
		for i, m := range s.links {
			if rx[m.From*n+m.To] < beta*(noise+s.dataSum[i]+rx[l.From*n+m.To]) {
				return false
			}
			if !s.ignoreAck && rx[m.To*n+m.From] < beta*(noise+s.ackSum[i]+rx[l.To*n+m.From]) {
				return false
			}
		}
		return true
	}
	eng := s.eng
	dataInterf, ackInterf := 0.0, 0.0
	for _, m := range s.links {
		if l.From == m.From || l.From == m.To || l.To == m.From || l.To == m.To {
			return false
		}
		dataInterf += eng.InterfMW(m.From, l.To)
		ackInterf += eng.InterfMW(m.To, l.From)
	}
	if eng.SignalMW(l.From, l.To) < beta*(noise+dataInterf) {
		return false
	}
	if !s.ignoreAck && eng.SignalMW(l.To, l.From) < beta*(noise+ackInterf) {
		return false
	}
	for i, m := range s.links {
		if eng.SignalMW(m.From, m.To) < beta*(noise+s.dataSum[i]+eng.InterfMW(l.From, m.To)) {
			return false
		}
		if !s.ignoreAck && eng.SignalMW(m.To, m.From) < beta*(noise+s.ackSum[i]+eng.InterfMW(l.To, m.From)) {
			return false
		}
	}
	return true
}

// Add inserts l into the slot, updating every running sum in O(k). Unlike
// CanAdd, Add never rejects: the protocols tentatively admit links that may
// conflict or fail their handshake (Outcomes reports which), and greedy
// callers are expected to gate on CanAdd themselves.
func (s *SlotState) Add(l Link) {
	if m := slotMetrics.Load(); m != nil {
		m.adds.Inc()
	}
	dataInterf, ackInterf := 0.0, 0.0
	if rx := s.rx; rx != nil {
		n := s.n
		for i, m := range s.links {
			s.dataSum[i] += rx[l.From*n+m.To]
			s.ackSum[i] += rx[l.To*n+m.From]
			dataInterf += rx[m.From*n+l.To]
			ackInterf += rx[m.To*n+l.From]
		}
	} else {
		eng := s.eng
		for i, m := range s.links {
			s.dataSum[i] += eng.InterfMW(l.From, m.To)
			s.ackSum[i] += eng.InterfMW(l.To, m.From)
			dataInterf += eng.InterfMW(m.From, l.To)
			ackInterf += eng.InterfMW(m.To, l.From)
		}
	}
	s.links = append(s.links, l)
	s.dataSum = append(s.dataSum, dataInterf)
	s.ackSum = append(s.ackSum, ackInterf)
	if s.busy != nil {
		s.busy[l.From]++
		s.busy[l.To]++
	}
}

// Mark snapshots the current slot so a later Rollback can undo any Adds
// performed after it — the protocols' tentative handshake pattern: mark,
// admit the step's active links, evaluate Outcomes, and roll back if the
// slot vetoes. Restoration is exact (the sums are copied, not re-derived).
// Only one mark is outstanding at a time; a new Mark replaces the previous
// one, and Reset invalidates it.
func (s *SlotState) Mark() {
	s.marked = len(s.links)
	s.savedData = append(s.savedData[:0], s.dataSum...)
	s.savedAck = append(s.savedAck[:0], s.ackSum...)
}

// Rollback restores the slot to the state captured by the last Mark. It
// panics if no valid mark is outstanding.
func (s *SlotState) Rollback() {
	if s.marked < 0 || s.marked > len(s.links) {
		panic("phys: SlotState.Rollback without a valid Mark")
	}
	if m := slotMetrics.Load(); m != nil {
		m.rollbacks.Inc()
	}
	if s.busy != nil {
		for _, l := range s.links[s.marked:] {
			s.busy[l.From]--
			s.busy[l.To]--
		}
	}
	s.links = s.links[:s.marked]
	s.dataSum = append(s.dataSum[:0], s.savedData...)
	s.ackSum = append(s.ackSum[:0], s.savedAck...)
}

// Reset empties the slot for reuse and invalidates any outstanding Mark.
func (s *SlotState) Reset() {
	if s.busy != nil {
		for _, l := range s.links {
			s.busy[l.From]--
			s.busy[l.To]--
		}
	}
	s.links = s.links[:0]
	s.dataSum = s.dataSum[:0]
	s.ackSum = s.ackSum[:0]
	s.marked = -1
}

// Outcomes evaluates the two-way handshake of every link currently in the
// slot, concurrently, exactly like Channel.HandshakeOutcome would for
// Links(): data decodes iff its SINR clears beta under all senders'
// interference; only decoding receivers ACK, and the handshake succeeds iff
// the ACK SINR clears beta too. Links with primary conflicts always fail.
// The returned slice is indexed like Links() and is reused by subsequent
// calls.
//
// Outcomes needs the dense *Channel engine (it reads the RX matrix) and
// panics on any other: its only caller, the protocols' ideal backend, runs
// on the exact channel.
//
// When every link decodes its data (the common case for slots built by
// CanAdd-gated admission), the evaluation is O(k) straight off the running
// sums; each data failure costs one O(k) correction pass for the silent
// ACK.
func (s *SlotState) Outcomes() []bool {
	rx := s.rx
	if rx == nil {
		panic("phys: SlotState.Outcomes needs the dense *Channel engine")
	}
	k := len(s.links)
	if cap(s.out) < k {
		s.out = make([]bool, k)
		s.dataOK = make([]bool, k)
	}
	out := s.out[:k]
	dataOK := s.dataOK[:k]
	s.failed = s.failed[:0]
	beta, noise, n := s.beta, s.noise, s.n
	if s.busy == nil {
		s.busy = make([]int32, n)
		for _, l := range s.links {
			s.busy[l.From]++
			s.busy[l.To]++
		}
	}

	// Data sub-slot. A primary-conflicted link never completes its
	// handshake (but its sender still radiates, which the running sums
	// already account for).
	for i, l := range s.links {
		if s.busy[l.From] > 1 || s.busy[l.To] > 1 {
			dataOK[i] = false
			s.failed = append(s.failed, i)
			continue
		}
		dataOK[i] = rx[l.From*n+l.To] >= beta*(noise+s.dataSum[i])
		if !dataOK[i] {
			s.failed = append(s.failed, i)
		}
	}

	// ACK sub-slot: links whose data was not decoded stay silent, so their
	// contribution is deducted from the running all-receivers sums.
	for i, l := range s.links {
		if !dataOK[i] {
			out[i] = false
			continue
		}
		ackInterf := s.ackSum[i]
		for _, j := range s.failed {
			ackInterf -= rx[s.links[j].To*n+l.From]
		}
		out[i] = rx[l.To*n+l.From] >= beta*(noise+ackInterf)
	}
	return out
}
