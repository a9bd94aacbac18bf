package phys

// Property tests for the incremental SINR feasibility engine: SlotState must
// agree decision-for-decision with the naive reference implementations
// (FeasibleSet, HandshakeOutcome) over randomized add, mark/rollback and
// reset sequences — the protocols' access pattern — and Mark/Rollback must
// restore state exactly. FuzzSlotStateOps drives the same operations from
// arbitrary byte strings.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gridChannel builds a channel with side*side nodes on a square grid, step
// meters apart, homogeneous power, default propagation.
func gridChannel(tb testing.TB, side int, step float64, txDBm DBm) *Channel {
	tb.Helper()
	n := side * side
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			dx := float64(i%side-j%side) * step
			dy := float64(i/side-j/side) * step
			dist[i][j] = math.Hypot(dx, dy)
		}
	}
	gain := BuildGainMatrix(dist, DefaultLogDistance(), nil)
	pw := make([]float64, n)
	for i := range pw {
		pw[i] = txDBm.MilliWatts()
	}
	ch, err := NewChannel(pw, gain, DBm(-96).MilliWatts(), DB(10).Linear())
	if err != nil {
		tb.Fatal(err)
	}
	return ch
}

// randomLink draws a link with arbitrary endpoints — including self loops
// and endpoints shared with existing links — so the fuzz covers primary
// conflicts and infeasible members, not just greedy-style admissible sets.
func randomLink(rng *rand.Rand, n int) Link {
	return Link{From: rng.Intn(n), To: rng.Intn(n)}
}

// slotMirror tracks the link set a SlotState should hold under Add, Mark,
// Rollback and Reset, so the tests can query the naive reference on it.
type slotMirror struct {
	links  []Link
	marked []Link // links at the last Mark; nil when no mark is outstanding
}

func (m *slotMirror) add(l Link) { m.links = append(m.links, l) }

func (m *slotMirror) mark() { m.marked = append([]Link{}, m.links...) }

func (m *slotMirror) rollback() { m.links = append(m.links[:0], m.marked...) }

func (m *slotMirror) reset() { m.links, m.marked = m.links[:0], nil }

// with returns the mirror's links plus l, without aliasing the mirror.
func (m *slotMirror) with(l Link) []Link { return append(append([]Link(nil), m.links...), l) }

// TestSlotStateAddRemoveMatchesFeasibleSet drives a SlotState through random
// CanAdd-gated adds interleaved with Mark, Rollback and Reset (the greedy
// access pattern plus the protocols' tentative-batch undo) and asserts at
// every step that CanAdd(l) equals the naive FeasibleSet on the would-be
// union.
func TestSlotStateAddRemoveMatchesFeasibleSet(t *testing.T) {
	ch := lineChannel(t, 24, 35, 20)
	rng := rand.New(rand.NewSource(41))
	agreeAdds, agreeRejects, rollbacks, resets := 0, 0, 0, 0
	for trial := 0; trial < 200; trial++ {
		st := NewSlotState(ch)
		var mirror slotMirror
		for op := 0; op < 30; op++ {
			switch r := rng.Intn(12); {
			case r == 0:
				st.Mark()
				mirror.mark()
				continue
			case r <= 2 && mirror.marked != nil:
				st.Rollback()
				mirror.rollback()
				rollbacks++
				continue
			case r == 3 && len(mirror.links) > 0:
				st.Reset()
				mirror.reset()
				resets++
				continue
			}
			a := rng.Intn(23)
			l := Link{a, a + 1}
			if rng.Intn(2) == 0 {
				l = l.Reverse()
			}
			want := ch.FeasibleSet(mirror.with(l))
			got := st.CanAdd(l)
			if got != want {
				t.Fatalf("trial %d op %d: CanAdd(%v) = %v, FeasibleSet(%v + it) = %v",
					trial, op, l, got, mirror.links, want)
			}
			if got {
				st.Add(l)
				mirror.add(l)
				agreeAdds++
			} else {
				agreeRejects++
			}
		}
		if st.Len() != len(mirror.links) {
			t.Fatalf("trial %d: Len = %d, mirror = %d", trial, st.Len(), len(mirror.links))
		}
	}
	if agreeAdds == 0 || agreeRejects == 0 || rollbacks == 0 || resets == 0 {
		t.Fatalf("fuzz did not exercise all paths: %d adds, %d rejects, %d rollbacks, %d resets",
			agreeAdds, agreeRejects, rollbacks, resets)
	}
}

// TestSlotStateOutcomesMatchHandshake fuzzes unconstrained adds —
// conflicting, duplicate, self-loop and hopeless links included, the
// protocol's tentative-admission pattern — interleaved with Mark, Rollback
// and Reset, and asserts Outcomes equals the naive HandshakeOutcome on the
// same set after every operation.
func TestSlotStateOutcomesMatchHandshake(t *testing.T) {
	ch := lineChannel(t, 20, 35, 20)
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 150; trial++ {
		st := NewSlotState(ch)
		var mirror slotMirror
		for op := 0; op < 25; op++ {
			switch r := rng.Intn(10); {
			case r == 0:
				st.Mark()
				mirror.mark()
			case r <= 2 && mirror.marked != nil:
				st.Rollback()
				mirror.rollback()
			case r == 3:
				st.Reset()
				mirror.reset()
			default:
				var l Link
				switch rng.Intn(5) {
				case 0: // arbitrary, possibly hopeless or a self loop
					l = randomLink(rng, 20)
				case 1: // duplicate an existing member
					if len(mirror.links) > 0 {
						l = mirror.links[rng.Intn(len(mirror.links))]
					} else {
						l = randomLink(rng, 20)
					}
				default: // a plausible short link
					a := rng.Intn(19)
					l = Link{a, a + 1}
				}
				st.Add(l)
				mirror.add(l)
			}
			if err := outcomesAgree(ch, st, mirror.links); err != "" {
				t.Fatalf("trial %d op %d: %s", trial, op, err)
			}
		}
	}
}

// outcomesAgree compares st.Outcomes() with the naive HandshakeOutcome on
// links, returning a description of the first disagreement ("" if none).
func outcomesAgree(ch *Channel, st *SlotState, links []Link) string {
	got := st.Outcomes()
	want := ch.HandshakeOutcome(links)
	if len(got) != len(want) {
		return fmt.Sprintf("%d outcomes for %d links", len(got), len(links))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("outcome[%d] = %v, naive = %v, links = %v", i, got[i], want[i], links)
		}
	}
	return ""
}

// FuzzSlotStateOps decodes a byte string into an operation sequence on a
// small random channel and checks SlotState against the naive references
// after every step: CanAdd(l) must equal FeasibleSet(slot + l) whenever the
// current slot is feasible, and Outcomes must equal HandshakeOutcome(slot).
//
// Layout: data[0] seeds the node positions (4-12 nodes in a 150 m square);
// every following byte pair is one operation — op byte, then link byte
// (From in the high nibble, To in the low one, both mod the node count).
// Operations, by op byte mod 6: CanAdd-gated Add, raw Add (conflicts,
// duplicates and self loops welcome), Mark, Rollback (when a mark is
// outstanding), Reset, and a repeated Outcomes call.
func FuzzSlotStateOps(f *testing.F) {
	f.Add([]byte{0, 0, 0x01, 0, 0x23, 0, 0x45, 5, 0})
	f.Add([]byte{7, 2, 0, 0, 0x10, 1, 0x12, 3, 0, 0, 0x34, 1, 0x21, 5, 0, 3, 0})
	f.Add([]byte{42, 1, 0x01, 1, 0x10, 1, 0x22, 2, 0, 1, 0x31, 3, 0, 4, 0, 0, 0x13})
	f.Add([]byte{255, 0, 0x12, 0, 0x34, 0, 0x56, 0, 0x70, 2, 0, 0, 0x81, 5, 0, 3, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ch := randomSquareChannel(t, int64(data[0]), 4+int(data[0])%9, 150)
		n := ch.NumNodes()
		st := NewSlotState(ch)
		var mirror slotMirror
		for i := 1; i+1 < len(data); i += 2 {
			l := Link{From: int(data[i+1]>>4) % n, To: int(data[i+1]&15) % n}
			switch data[i] % 6 {
			case 0:
				got := st.CanAdd(l)
				if ch.FeasibleSet(mirror.links) {
					if want := ch.FeasibleSet(mirror.with(l)); got != want {
						t.Fatalf("op %d: CanAdd(%v) = %v, FeasibleSet(%v + it) = %v", i/2, l, got, mirror.links, want)
					}
				}
				if got {
					st.Add(l)
					mirror.add(l)
				}
			case 1:
				st.Add(l)
				mirror.add(l)
			case 2:
				st.Mark()
				mirror.mark()
			case 3:
				if mirror.marked != nil {
					st.Rollback()
					mirror.rollback()
				}
			case 4:
				st.Reset()
				mirror.reset()
			case 5:
				first := append([]bool(nil), st.Outcomes()...)
				for j, ok := range st.Outcomes() {
					if ok != first[j] {
						t.Fatalf("op %d: repeated Outcomes disagree at %d", i/2, j)
					}
				}
			}
			if err := outcomesAgree(ch, st, mirror.links); err != "" {
				t.Fatalf("op %d: %s", i/2, err)
			}
		}
	})
}

// randomSquareChannel places n nodes uniformly at random (seeded) in a
// side x side meter square, homogeneous 20 dBm power, default propagation.
func randomSquareChannel(tb testing.TB, seed int64, n int, side float64) *Channel {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = rng.Float64()*side, rng.Float64()*side
	}
	dist := make([][]float64, n)
	for i := range dist {
		dist[i] = make([]float64, n)
		for j := range dist[i] {
			dist[i][j] = math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
		}
	}
	pw := make([]float64, n)
	for i := range pw {
		pw[i] = DBm(20).MilliWatts()
	}
	ch, err := NewChannel(pw, BuildGainMatrix(dist, DefaultLogDistance(), nil), DBm(-96).MilliWatts(), DB(10).Linear())
	if err != nil {
		tb.Fatal(err)
	}
	return ch
}

// TestSlotStateMarkRollback: Rollback must restore the exact pre-Mark state
// — links, endpoint occupancy and bit-identical interference sums — no
// matter what was tentatively admitted in between.
func TestSlotStateMarkRollback(t *testing.T) {
	ch := lineChannel(t, 24, 35, 20)
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 100; trial++ {
		st := NewSlotState(ch)
		for op := 0; op < 6; op++ {
			a := rng.Intn(23)
			if l := (Link{a, a + 1}); st.CanAdd(l) {
				st.Add(l)
			}
		}
		wantLinks := st.Links()
		wantData := append([]float64(nil), st.dataSum...)
		wantAck := append([]float64(nil), st.ackSum...)

		st.Mark()
		for op := 0; op < 5; op++ {
			st.Add(randomLink(rng, 24)) // unvetted: conflicts welcome
		}
		st.Outcomes() // force lazy conflict-count state into existence
		st.Rollback()

		gotLinks := st.Links()
		if len(gotLinks) != len(wantLinks) {
			t.Fatalf("trial %d: %d links after rollback, want %d", trial, len(gotLinks), len(wantLinks))
		}
		for i := range wantLinks {
			if gotLinks[i] != wantLinks[i] {
				t.Fatalf("trial %d: link[%d] = %v after rollback, want %v", trial, i, gotLinks[i], wantLinks[i])
			}
			if st.dataSum[i] != wantData[i] || st.ackSum[i] != wantAck[i] {
				t.Fatalf("trial %d: sums[%d] = (%v, %v) after rollback, want exactly (%v, %v)",
					trial, i, st.dataSum[i], st.ackSum[i], wantData[i], wantAck[i])
			}
		}
		for u, c := range st.busy {
			want := int32(0)
			for _, l := range wantLinks {
				if l.From == u {
					want++
				}
				if l.To == u {
					want++
				}
			}
			if c != want {
				t.Fatalf("trial %d: busy[%d] = %d after rollback, want %d", trial, u, c, want)
			}
		}
		// And the rolled-back state keeps agreeing with the reference.
		out := st.Outcomes()
		naive := ch.HandshakeOutcome(wantLinks)
		for i := range naive {
			if out[i] != naive[i] {
				t.Fatalf("trial %d: outcome[%d] diverged after rollback", trial, i)
			}
		}
	}
}

// TestSlotStateRollbackWithoutMarkPanics documents the API contract.
func TestSlotStateRollbackWithoutMarkPanics(t *testing.T) {
	ch := lineChannel(t, 4, 35, 20)
	st := NewSlotState(ch)
	defer func() {
		if recover() == nil {
			t.Fatal("Rollback without Mark should panic")
		}
	}()
	st.Rollback()
}

// buildSlotIncremental greedily fills one slot from candidates with the
// SlotState engine.
func buildSlotIncremental(ch *Channel, candidates []Link) int {
	st := NewSlotState(ch)
	for _, l := range candidates {
		if st.CanAdd(l) {
			st.Add(l)
		}
	}
	return st.Len()
}

// buildSlotNaive greedily fills one slot by re-running the naive FeasibleSet
// over the whole accumulated slot per candidate — the pre-engine hot path.
func buildSlotNaive(ch *Channel, candidates []Link) int {
	var slot []Link
	for _, l := range candidates {
		if ch.FeasibleSet(append(slot, l)) {
			slot = append(slot, l)
		}
	}
	return len(slot)
}

// BenchmarkSlotStateVsNaive quantifies the incremental engine against the
// naive full-recheck path on greedy single-slot construction over 64- and
// 256-node grids (candidates: all horizontal odd-even grid edges).
func BenchmarkSlotStateVsNaive(b *testing.B) {
	for _, side := range []int{8, 16} {
		ch := gridChannel(b, side, 40, 20)
		var candidates []Link
		for r := 0; r < side; r++ {
			for c := 0; c+1 < side; c += 2 {
				candidates = append(candidates, Link{From: r*side + c, To: r*side + c + 1})
			}
		}
		inc := buildSlotIncremental(ch, candidates)
		naive := buildSlotNaive(ch, candidates)
		if inc != naive || inc == 0 {
			b.Fatalf("side %d: incremental admits %d, naive %d", side, inc, naive)
		}
		name := map[int]string{8: "grid64", 16: "grid256"}[side]
		b.Run(name+"/incremental", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buildSlotIncremental(ch, candidates)
			}
		})
		b.Run(name+"/naive", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				buildSlotNaive(ch, candidates)
			}
		})
	}
}
