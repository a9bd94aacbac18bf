package phys

import "fmt"

// Multi-channel slots model C orthogonal frequency channels over one
// physical deployment. All channels share the deployment's propagation — the
// same Engine — but interference only accumulates within a channel:
// concurrent transmissions on different channels do not interfere (the
// multicoloring setting of Vieira et al., arXiv:1504.01647). Channel 0 is
// the designated control channel: SCREAM floods and elections ride it, data
// rides the full set.

// Placement is one link scheduled on one channel of a multi-channel slot.
type Placement struct {
	Link    Link
	Channel int
}

// String implements fmt.Stringer.
func (p Placement) String() string { return fmt.Sprintf("%v@ch%d", p.Link, p.Channel) }

// FeasibleAssignment is the naive reference feasibility check for a
// multi-channel slot over channels orthogonal copies of c: the links
// assigned to each channel must form a FeasibleSet of c (SINR inequalities
// and primary conflicts accumulate per channel only), every placement must
// name a channel in [0, channels), and no node may be an endpoint of more
// than numRadios placements — a node with R radios can tune at most R
// channels in one slot, and each placement occupies one radio at each
// endpoint. MultiSlotState is the incremental counterpart the property tests
// compare against this method.
func (c *Channel) FeasibleAssignment(channels int, placements []Placement, numRadios int) bool {
	if numRadios <= 0 {
		numRadios = 1
	}
	radios := make(map[int]int)
	perChan := make(map[int][]Link)
	for _, p := range placements {
		if p.Channel < 0 || p.Channel >= channels {
			return false
		}
		perChan[p.Channel] = append(perChan[p.Channel], p.Link)
		radios[p.Link.From]++
		radios[p.Link.To]++
	}
	for _, used := range radios {
		if used > numRadios {
			return false
		}
	}
	for _, links := range perChan {
		if !c.FeasibleSet(links) {
			return false
		}
	}
	return true
}

// MultiSlotState is the incremental feasibility engine for one multi-channel
// slot under construction: a vector of per-channel SlotStates (interference
// sums accumulate within a channel only) plus a per-node radio-occupancy
// count enforcing that no node is active on more than numRadios channels in
// the slot. CanAdd and Add are O(k_ch) against the links already on the
// probed channel.
//
// A MultiSlotState is not safe for concurrent use and must not be copied
// (a copy would share its per-channel states and radio counts).
type MultiSlotState struct {
	numRadios int
	states    []SlotState
	radios    []int32     // radios[u]: placements in this slot with endpoint u
	order     []Placement // admission order across channels
}

// NewMultiSlotState returns an empty multi-channel slot over channels
// orthogonal copies of engine e with the given per-node radio budget
// (numRadios <= 0 means 1).
func NewMultiSlotState(e Engine, channels, numRadios int) *MultiSlotState {
	if numRadios <= 0 {
		numRadios = 1
	}
	s := &MultiSlotState{
		numRadios: numRadios,
		states:    make([]SlotState, channels),
		radios:    make([]int32, e.NumNodes()),
	}
	for i := range s.states {
		s.states[i].Init(e)
	}
	return s
}

// Placements returns a copy of the slot's placements in admission order.
func (s *MultiSlotState) Placements() []Placement {
	out := make([]Placement, len(s.order))
	copy(out, s.order)
	return out
}

// CanAdd reports whether placing l on channel ch keeps the slot feasible:
// both endpoints must have a free radio (fewer than numRadios placements in
// this slot already touch them) and l must clear the single-channel CanAdd
// against the links currently on ch. For a feasible current slot on the
// dense channel this is exactly FeasibleAssignment(Placements() + {l, ch}).
func (s *MultiSlotState) CanAdd(l Link, ch int) bool {
	if s.radios[l.From] >= int32(s.numRadios) || s.radios[l.To] >= int32(s.numRadios) {
		return false
	}
	return s.states[ch].CanAdd(l)
}

// Add places l on channel ch, updating the channel's running sums and both
// endpoints' radio counts. Like SlotState.Add it never rejects; callers gate
// on CanAdd.
func (s *MultiSlotState) Add(l Link, ch int) {
	s.states[ch].Add(l)
	s.radios[l.From]++
	s.radios[l.To]++
	s.order = append(s.order, Placement{Link: l, Channel: ch})
}
