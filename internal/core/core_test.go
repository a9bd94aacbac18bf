package core

import (
	"math/rand"
	"strings"
	"testing"

	"scream/internal/des"
	"scream/internal/phys"
	"scream/internal/route"
	"scream/internal/sched"
	"scream/internal/topo"
	"scream/internal/traffic"
)

// fixture bundles a network, its routing forest links/demands and an ideal
// backend factory.
type fixture struct {
	net     *topo.Network
	links   []phys.Link
	demands []int
}

func gridFixture(t testing.TB, dim int, seed int64) *fixture {
	t.Helper()
	net, err := topo.NewGrid(topo.GridConfig{Rows: dim, Cols: dim, Step: 30, Params: topo.DefaultParams()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return forestFixture(t, net, []int{0}, rand.New(rand.NewSource(seed)))
}

// uniformFixture draws the heterogeneous-power uniform deployment of
// TestTheorem4HoldsOnUniformTopology (n nodes in a 180 m square, 16–22 dBm)
// with gateways at the first and last node.
func uniformFixture(t testing.TB, n int, seed int64) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net, err := topo.NewUniform(topo.UniformConfig{
		N: n, Side: 180, MinTxDBm: 16, MaxTxDBm: 22, Params: topo.DefaultParams(),
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return forestFixture(t, net, []int{0, n - 1}, rng)
}

// forestFixture routes net to the gateways and draws uniform 1–10 node
// demands, aggregated onto the forest links.
func forestFixture(t testing.TB, net *topo.Network, gateways []int, rng *rand.Rand) *fixture {
	t.Helper()
	f, err := route.BuildForest(net.Comm, gateways, rng)
	if err != nil {
		t.Fatal(err)
	}
	nodeDemand, err := traffic.Uniform(net.NumNodes(), 1, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := f.AggregateDemand(nodeDemand)
	if err != nil {
		t.Fatal(err)
	}
	links := f.Links()
	demands := make([]int, len(links))
	for i, l := range links {
		demands[i] = agg[l.From]
	}
	return &fixture{net: net, links: links, demands: demands}
}

func (fx *fixture) backend(t testing.TB, k int, strict bool) *IdealBackend {
	t.Helper()
	if k == 0 {
		k = fx.net.InterferenceDiameter()
	}
	b, err := NewIdealBackend(fx.net.Channel, fx.net.Sens, k, DefaultTiming(), strict)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTimingDurations(t *testing.T) {
	tm := DefaultTiming()
	if tm.TxTime(0) != 0 {
		t.Error("zero bytes should take zero time")
	}
	// 15 bytes at 54 Mb/s = 2.22 us.
	got := tm.TxTime(15)
	want := des.FromSeconds(15 * 8 / 54e6)
	if got != want {
		t.Errorf("TxTime(15) = %v, want %v", got, want)
	}
	if tm.Guard() != 4*tm.SkewBound {
		t.Error("guard must be 4x skew")
	}
	if tm.TxDelay() != 2*tm.SkewBound {
		t.Error("tx delay must be 2x skew")
	}
	if tm.HandshakeSlot() != tm.DataSubSlot()+tm.AckSubSlot() {
		t.Error("handshake slot must be the two sub-slots")
	}
	if tm.ScreamSlot() <= tm.Guard() {
		t.Error("scream slot must include payload time")
	}
	zero := Timing{}
	if zero.TxTime(100) != 0 {
		t.Error("zero bitrate should yield zero txtime, not a division blowup")
	}
}

func TestIdealBackendConstruction(t *testing.T) {
	fx := gridFixture(t, 4, 1)
	id := fx.net.InterferenceDiameter()
	if _, err := NewIdealBackend(fx.net.Channel, fx.net.Sens, id, DefaultTiming(), false); err != nil {
		t.Errorf("k = ID should be accepted: %v", err)
	}
	if _, err := NewIdealBackend(fx.net.Channel, fx.net.Sens, id-1, DefaultTiming(), false); err == nil {
		t.Error("k < ID must be rejected in fast mode")
	}
	if _, err := NewIdealBackend(fx.net.Channel, fx.net.Sens, id-1, DefaultTiming(), true); err != nil {
		t.Errorf("strict mode should allow k < ID (to observe failure): %v", err)
	}
	if _, err := NewIdealBackend(fx.net.Channel, fx.net.Sens, 0, DefaultTiming(), true); err == nil {
		t.Error("k = 0 must be rejected")
	}
}

func TestScreamComputesOR(t *testing.T) {
	fx := gridFixture(t, 5, 2)
	rng := rand.New(rand.NewSource(5))
	for _, strict := range []bool{false, true} {
		b := fx.backend(t, 0, strict)
		n := b.NumNodes()
		for trial := 0; trial < 30; trial++ {
			vars := make([]bool, n)
			expect := false
			for i := range vars {
				if rng.Intn(8) == 0 {
					vars[i] = true
					expect = true
				}
			}
			got := b.Scream(vars)
			for i, g := range got {
				if g != expect {
					t.Fatalf("strict=%v trial %d: node %d got %v, want OR=%v", strict, trial, i, g, expect)
				}
			}
		}
	}
}

func TestScreamStrictMatchesFast(t *testing.T) {
	fx := gridFixture(t, 4, 3)
	fast := fx.backend(t, 0, false)
	strict := fx.backend(t, 0, true)
	rng := rand.New(rand.NewSource(7))
	n := fast.NumNodes()
	for trial := 0; trial < 50; trial++ {
		vars := make([]bool, n)
		for i := range vars {
			vars[i] = rng.Intn(4) == 0
		}
		a, s := fast.Scream(vars), strict.Scream(vars)
		for i := range a {
			if a[i] != s[i] {
				t.Fatalf("fast and strict disagree at node %d (trial %d)", i, trial)
			}
		}
	}
}

func TestScreamKTooSmallFailsOnLine(t *testing.T) {
	// On a line of n nodes with single-step sensitivity, a scream from one
	// end needs n-1 slots to reach the other: K = ID-1 must leave the far
	// node uninformed (the K >= ID requirement of Section IV-B).
	net, err := topo.NewLine(10, 30, topo.DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	id := net.InterferenceDiameter() // 9
	b, err := NewIdealBackend(net.Channel, net.Sens, id-1, DefaultTiming(), true)
	if err != nil {
		t.Fatal(err)
	}
	vars := make([]bool, 10)
	vars[0] = true
	got := b.Scream(vars)
	if got[9] {
		t.Error("K = ID-1 should fail to reach the far end of the line")
	}
	if !got[8] {
		t.Error("K = ID-1 should still reach node 8")
	}
	b2, err := NewIdealBackend(net.Channel, net.Sens, id, DefaultTiming(), true)
	if err != nil {
		t.Fatal(err)
	}
	if got := b2.Scream(vars); !got[9] {
		t.Error("K = ID must reach every node")
	}
}

func TestScreamAllFalse(t *testing.T) {
	fx := gridFixture(t, 4, 4)
	for _, strict := range []bool{false, true} {
		b := fx.backend(t, 0, strict)
		got := b.Scream(make([]bool, b.NumNodes()))
		for i, g := range got {
			if g {
				t.Errorf("strict=%v: silent network should stay false at node %d", strict, i)
			}
		}
	}
}

func TestScreamTimeAccounting(t *testing.T) {
	fx := gridFixture(t, 4, 5)
	k := fx.net.InterferenceDiameter()
	b := fx.backend(t, k, false)
	before := b.Elapsed()
	b.Scream(make([]bool, b.NumNodes()))
	want := des.Time(k) * DefaultTiming().ScreamSlot()
	if got := b.Elapsed() - before; got != want {
		t.Errorf("one SCREAM costs %v, want %v", got, want)
	}
	b.HandshakeSlot(nil)
	if got := b.Elapsed() - before - want; got != DefaultTiming().HandshakeSlot() {
		t.Errorf("handshake slot cost %v, want %v", got, DefaultTiming().HandshakeSlot())
	}
}

func TestRunScreamSlotsRelayGrowth(t *testing.T) {
	// Simulated line detection: node i hears i-1 and i+1.
	n := 6
	slot := func(s []bool) []bool {
		det := make([]bool, n)
		for v := 0; v < n; v++ {
			if v > 0 && s[v-1] {
				det[v] = true
			}
			if v < n-1 && s[v+1] {
				det[v] = true
			}
		}
		return det
	}
	vars := make([]bool, n)
	vars[0] = true
	got := RunScreamSlots(3, vars, slot)
	want := []bool{true, true, true, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after 3 slots relay = %v, want %v", got, want)
		}
	}
	// Input slice must not be mutated.
	if vars[1] {
		t.Error("RunScreamSlots must not mutate its input")
	}
}

func TestIDBitsFor(t *testing.T) {
	tests := []struct{ n, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {64, 6}, {65, 7}, {100, 7},
	}
	for _, tt := range tests {
		if got := IDBitsFor(tt.n); got != tt.want {
			t.Errorf("IDBitsFor(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestLeaderElectHighestIDWins(t *testing.T) {
	fx := gridFixture(t, 4, 6)
	b := fx.backend(t, 0, false)
	n := b.NumNodes()
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	all := make([]bool, n)
	for i := range all {
		all[i] = true
	}
	if got := LeaderElect(b, IDBitsFor(n), ids, all); got != n-1 {
		t.Errorf("winner = %d, want %d", got, n-1)
	}
}

func TestLeaderElectSubset(t *testing.T) {
	fx := gridFixture(t, 4, 7)
	b := fx.backend(t, 0, false)
	n := b.NumNodes()
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	part := make([]bool, n)
	part[3], part[7], part[11] = true, true, true
	if got := LeaderElect(b, IDBitsFor(n), ids, part); got != 11 {
		t.Errorf("winner = %d, want 11", got)
	}
}

func TestLeaderElectNoParticipants(t *testing.T) {
	fx := gridFixture(t, 4, 8)
	b := fx.backend(t, 0, false)
	if got := LeaderElect(b, 6, make([]uint64, b.NumNodes()), make([]bool, b.NumNodes())); got != -1 {
		t.Errorf("winner = %d, want -1", got)
	}
}

func TestLeaderElectRandomSubsetsProperty(t *testing.T) {
	fx := gridFixture(t, 5, 9)
	b := fx.backend(t, 0, false)
	n := b.NumNodes()
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i * 3) // non-trivial but unique and ordered
	}
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 100; trial++ {
		part := make([]bool, n)
		want := -1
		for i := range part {
			if rng.Intn(3) == 0 {
				part[i] = true
				if want < 0 || ids[i] > ids[want] {
					want = i
				}
			}
		}
		if got := LeaderElect(b, IDBitsFor(3*n), ids, part); got != want {
			t.Fatalf("trial %d: winner = %d, want %d", trial, got, want)
		}
	}
}

func TestLeaderElectStrictBackend(t *testing.T) {
	fx := gridFixture(t, 4, 11)
	b := fx.backend(t, 0, true)
	n := b.NumNodes()
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = uint64(i)
	}
	all := make([]bool, n)
	for i := range all {
		all[i] = true
	}
	if got := LeaderElect(b, IDBitsFor(n), ids, all); got != n-1 {
		t.Errorf("strict-backend winner = %d, want %d", got, n-1)
	}
}

// electBoth runs one election through the fast path (a non-strict
// IdealBackend answering it directly) and through the bitwise reference on
// the same backend, hidden behind struct{ Backend } so LeaderElect cannot
// see the concrete type, and fails unless winner, billed SCREAMs and billed
// time agree. It returns the winner.
func electBoth(t *testing.T, b *IdealBackend, idBits int, ids []uint64, part []bool) int {
	t.Helper()
	s0, e0 := b.ScreamCount(), b.Elapsed()
	got := LeaderElect(b, idBits, ids, part)
	s1, e1 := b.ScreamCount(), b.Elapsed()
	want := LeaderElect(struct{ Backend }{b}, idBits, ids, part)
	s2, e2 := b.ScreamCount(), b.Elapsed()
	if got != want {
		t.Fatalf("idBits %d ids %v part %v: fast winner %d, bitwise %d", idBits, ids, part, got, want)
	}
	if s1-s0 != s2-s1 || e1-e0 != e2-e1 {
		t.Fatalf("idBits %d: fast billed %d SCREAMs / %v, bitwise %d / %v", idBits, s1-s0, e1-e0, s2-s1, e2-e1)
	}
	return got
}

// TestLeaderElectFastMatchesBitwise pins the fast election against the
// bitwise reference on the edge cases of the tie rule and the ID mask.
func TestLeaderElectFastMatchesBitwise(t *testing.T) {
	b := gridFixture(t, 3, 1).backend(t, 0, false)
	n := b.NumNodes()
	seq := make([]uint64, n)
	for i := range seq {
		seq[i] = uint64(i)
	}
	only := func(idx ...int) []bool {
		part := make([]bool, n)
		for _, i := range idx {
			part[i] = true
		}
		return part
	}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	dupMax := append([]uint64(nil), seq...)
	dupMax[2], dupMax[6] = 8, 8 // ties node 8's maximum ID
	wide := append([]uint64(nil), seq...)
	wide[1] = 1<<40 | 3 // largest full ID, but only 3 under a 4-bit mask
	top := append([]uint64(nil), seq...)
	top[4] = 1 << 63 // only 0 under a 63-bit mask
	cases := []struct {
		name   string
		idBits int
		ids    []uint64
		part   []bool
		want   int
	}{
		{"no participants", 4, seq, only(), -1},
		{"single participant", 4, seq, only(5), 5},
		{"everyone", 4, seq, only(all...), n - 1},
		{"duplicate maximum IDs", 4, dupMax, only(all...), 8},
		{"duplicate maximum IDs, later index first", 4, dupMax, only(0, 2, 6), 6},
		{"ID wider than idBits", 4, wide, only(1, 3), 1},
		{"ID wider than idBits loses on masked bits", 4, wide, only(1, 7), 7},
		{"zero bits: largest full ID", 0, wide, only(all...), 1},
		{"63 bits: the top bit masked", 63, top, only(4, 5), 5},
		{"64 bits: nothing masked", 64, top, only(4, 5), 4},
		{"70 bits", 70, wide, only(all...), 1},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if got := electBoth(t, b, tt.idBits, tt.ids, tt.part); got != tt.want {
				t.Errorf("winner = %d, want %d", got, tt.want)
			}
		})
	}
	// The fast path is what LeaderElect takes on this backend: it runs
	// without materialising a single SCREAM result.
	part := only(all...)
	if allocs := testing.AllocsPerRun(10, func() { LeaderElect(b, 6, seq, part) }); allocs != 0 {
		t.Errorf("fast LeaderElect allocates %v times per call, want 0", allocs)
	}
}

// FuzzElectOR decodes a byte string into an election — 1–40 nodes on a
// seeded uniform deployment, participation flags, IDs with duplicates and
// bits above idBits, idBits in 0–70 — and checks the fast path against the
// bitwise reference: same winner, same SCREAM count, same billed time.
func FuzzElectOR(f *testing.F) {
	f.Add([]byte{9, 4, 1, 1, 0, 1, 1, 1, 2, 3, 0, 1, 5})
	f.Add([]byte{0, 6, 2})
	f.Add([]byte{39, 70, 3, 7, 255, 5, 255, 3, 0, 1, 9, 0x41, 1})
	f.Add([]byte{17, 0, 4, 1, 200, 1, 100, 3, 0, 3, 1})
	f.Add([]byte{25, 64, 5, 0xfd, 7, 0x11, 3, 7, 0, 0xf5, 1})
	f.Add([]byte{1, 63, 6, 0xfd, 2, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + int(data[0])%40
		idBits := int(data[1]) % 71
		net, err := topo.NewUniform(topo.UniformConfig{
			// A 60 m square at 20 dBm: every node hears every other.
			N: n, Side: 60, MinTxDBm: 20, MaxTxDBm: 20, Params: topo.DefaultParams(),
		}, rand.New(rand.NewSource(int64(data[2]))))
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewIdealBackend(net.Channel, net.Sens, max(net.InterferenceDiameter(), 1), DefaultTiming(), false)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]uint64, n)
		part := make([]bool, n)
		for i := 0; i < n; i++ {
			var fl, v byte
			if k := 3 + 2*i; k+1 < len(data) {
				fl, v = data[k], data[k+1]
			}
			part[i] = fl&1 == 1
			switch (fl >> 1) & 3 {
			case 0:
				ids[i] = uint64(v)
			case 1: // duplicate an earlier node's ID
				ids[i] = uint64(v)
				if i > 0 {
					ids[i] = ids[int(v)%i]
				}
			case 2: // bits anywhere in the word
				ids[i] = uint64(v) << (2 * (fl >> 3))
			case 3: // the top bits set
				ids[i] = ^uint64(v)
			}
		}
		electBoth(t, b, idBits, ids, part)
	})
}

// BenchmarkLeaderElect64 measures one controller election among all 64
// nodes of an 8x8 grid: answered directly by the fast backend, and run bit
// by bit (IDBitsFor(64) = 6 SCREAMs) through the reference path.
func BenchmarkLeaderElect64(b *testing.B) {
	ib := gridFixture(b, 8, 1).backend(b, 0, false)
	n := ib.NumNodes()
	ids := make([]uint64, n)
	part := make([]bool, n)
	for i := range ids {
		ids[i], part[i] = uint64(i), true
	}
	for _, bc := range []struct {
		name string
		be   Backend
	}{{"fast", ib}, {"reference", struct{ Backend }{ib}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if LeaderElect(bc.be, IDBitsFor(n), ids, part) != n-1 {
					b.Fatal("wrong winner")
				}
			}
		})
	}
}

func TestFDDVerifiesAndTerminates(t *testing.T) {
	fx := gridFixture(t, 5, 12)
	res, err := Run(Config{
		Variant: FDD,
		Links:   fx.links,
		Demands: fx.demands,
		Backend: fx.backend(t, 0, false),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Verify(fx.net.Channel, fx.links, fx.demands); err != nil {
		t.Fatalf("FDD schedule invalid: %v", err)
	}
	if res.Rounds != res.Schedule.Length() {
		t.Errorf("rounds %d != schedule length %d", res.Rounds, res.Schedule.Length())
	}
	if res.ExecTime <= 0 {
		t.Error("execution time must be positive")
	}
	t.Logf("FDD: %d slots, %d steps, %d elections, %d screams, %v",
		res.Schedule.Length(), res.Steps, res.Elections, res.Screams, res.ExecTime)
}

func TestPDDVerifiesAndTerminates(t *testing.T) {
	fx := gridFixture(t, 5, 13)
	for _, p := range []float64{0.2, 0.6, 0.8, 1.0} {
		res, err := Run(Config{
			Variant:     PDD,
			Links:       fx.links,
			Demands:     fx.demands,
			Backend:     fx.backend(t, 0, false),
			Probability: p,
			RNG:         rand.New(rand.NewSource(14)),
		})
		if err != nil {
			t.Fatalf("p=%v: %v", p, err)
		}
		if err := res.Schedule.Verify(fx.net.Channel, fx.links, fx.demands); err != nil {
			t.Fatalf("p=%v: PDD schedule invalid: %v", p, err)
		}
	}
}

// TestTheorem4FDDEqualsGreedyPhysical is the reproduction of the paper's
// Theorem 4: FDD computes slot-for-slot the same schedule as the centralized
// GreedyPhysical with edges ordered by decreasing head ID.
func TestTheorem4FDDEqualsGreedyPhysical(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		fx := gridFixture(t, 5, seed)
		res, err := Run(Config{
			Variant: FDD,
			Links:   fx.links,
			Demands: fx.demands,
			Backend: fx.backend(t, 0, false),
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := sched.GreedyPhysical(fx.net.Channel, fx.links, fx.demands, sched.ByHeadIDDesc)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Schedule.Equal(want) {
			t.Fatalf("seed %d: FDD schedule differs from centralized GreedyPhysical (FDD %d slots, greedy %d)",
				seed, res.Schedule.Length(), want.Length())
		}
	}
}

func TestTheorem4HoldsOnUniformTopology(t *testing.T) {
	fx := uniformFixture(t, 36, 77)
	b := fx.backend(t, 0, false)
	res, err := Run(Config{Variant: FDD, Links: fx.links, Demands: fx.demands, Backend: b})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sched.GreedyPhysical(fx.net.Channel, fx.links, fx.demands, sched.ByHeadIDDesc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Schedule.Equal(want) {
		t.Fatal("Theorem 4 equality failed on heterogeneous uniform topology")
	}
	if err := res.Schedule.Verify(fx.net.Channel, fx.links, fx.demands); err != nil {
		t.Fatal(err)
	}
}

func TestPDDWorseOrEqualFDDOnAverage(t *testing.T) {
	// The paper reports PDD about 10-15 points worse than FDD. Averaged
	// over seeds, PDD (p=0.8) must not beat FDD by any meaningful margin.
	fddTotal, pddTotal := 0, 0
	for seed := int64(0); seed < 5; seed++ {
		fx := gridFixture(t, 5, 20+seed)
		fdd, err := Run(Config{Variant: FDD, Links: fx.links, Demands: fx.demands, Backend: fx.backend(t, 0, false)})
		if err != nil {
			t.Fatal(err)
		}
		pdd, err := Run(Config{
			Variant: PDD, Links: fx.links, Demands: fx.demands,
			Backend: fx.backend(t, 0, false), Probability: 0.8,
			RNG: rand.New(rand.NewSource(seed)),
		})
		if err != nil {
			t.Fatal(err)
		}
		fddTotal += fdd.Schedule.Length()
		pddTotal += pdd.Schedule.Length()
	}
	if pddTotal < fddTotal*95/100 {
		t.Errorf("PDD (%d total slots) should not beat FDD (%d) by >5%%", pddTotal, fddTotal)
	}
	t.Logf("total slots over 5 seeds: FDD %d, PDD(0.8) %d", fddTotal, pddTotal)
}

func TestPDDFasterThanFDD(t *testing.T) {
	fx := gridFixture(t, 5, 30)
	fdd, err := Run(Config{Variant: FDD, Links: fx.links, Demands: fx.demands, Backend: fx.backend(t, 0, false)})
	if err != nil {
		t.Fatal(err)
	}
	pdd, err := Run(Config{
		Variant: PDD, Links: fx.links, Demands: fx.demands,
		Backend: fx.backend(t, 0, false), Probability: 0.2,
		RNG: rand.New(rand.NewSource(31)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if pdd.ExecTime >= fdd.ExecTime {
		t.Errorf("PDD (%v) should run faster than FDD (%v): elections dominate", pdd.ExecTime, fdd.ExecTime)
	}
}

func TestTheorem5RoundBound(t *testing.T) {
	// Rounds <= TD (each round schedules at least the controller's edge).
	fx := gridFixture(t, 5, 40)
	td := sched.LinearLength(fx.demands)
	res, err := Run(Config{Variant: FDD, Links: fx.links, Demands: fx.demands, Backend: fx.backend(t, 0, false)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds > td {
		t.Errorf("rounds %d exceeds TD %d", res.Rounds, td)
	}
	// Per-round cost: at most (n+1) elections + O(n) screams; total scream
	// count must be O(rounds * n * idBits) — the Theorem 5 accounting.
	n := fx.net.NumNodes()
	idBits := IDBitsFor(n)
	bound := res.Rounds * (n + 2) * (idBits + 2)
	if res.Screams > bound {
		t.Errorf("screams %d exceed Theorem 5 accounting bound %d", res.Screams, bound)
	}
}

func TestRunConfigValidation(t *testing.T) {
	fx := gridFixture(t, 4, 50)
	b := fx.backend(t, 0, false)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"bad variant", Config{Links: fx.links, Demands: fx.demands, Backend: b}},
		{"mismatched demands", Config{Variant: FDD, Links: fx.links, Demands: fx.demands[:1], Backend: b}},
		{"pdd no rng", Config{Variant: PDD, Probability: 0.5, Links: fx.links, Demands: fx.demands, Backend: b}},
		{"pdd bad p", Config{Variant: PDD, Probability: 1.5, RNG: rand.New(rand.NewSource(1)), Links: fx.links, Demands: fx.demands, Backend: b}},
		{"negative id bits", Config{Variant: FDD, IDBits: -1, Links: fx.links, Demands: fx.demands, Backend: b}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(tt.cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
	_, err := Run(Config{Variant: FDD, IDBits: -3, Links: fx.links, Demands: fx.demands, Backend: b})
	if err == nil || !strings.Contains(err.Error(), "IDBits") {
		t.Errorf("negative IDBits error %v must name the field", err)
	}
	if b.ScreamCount() != 0 || b.Elapsed() != 0 {
		t.Error("rejected configs must not run any primitive")
	}
}

func TestRunRejectsDuplicateOwner(t *testing.T) {
	fx := gridFixture(t, 4, 51)
	links := append([]phys.Link(nil), fx.links...)
	links[1] = phys.Link{From: links[0].From, To: links[0].To} // duplicate owner
	demands := append([]int(nil), fx.demands...)
	if _, err := Run(Config{Variant: FDD, Links: links, Demands: demands, Backend: fx.backend(t, 0, false)}); err == nil {
		t.Error("duplicate owner must be rejected")
	}
}

func TestRunZeroDemand(t *testing.T) {
	fx := gridFixture(t, 4, 52)
	demands := make([]int, len(fx.links))
	res, err := Run(Config{Variant: FDD, Links: fx.links, Demands: demands, Backend: fx.backend(t, 0, false)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Length() != 0 {
		t.Errorf("zero demand should yield empty schedule, got %d slots", res.Schedule.Length())
	}
}

func TestASAPSealAblation(t *testing.T) {
	fx := gridFixture(t, 5, 53)
	normal, err := Run(Config{Variant: FDD, Links: fx.links, Demands: fx.demands, Backend: fx.backend(t, 0, false)})
	if err != nil {
		t.Fatal(err)
	}
	asap, err := Run(Config{Variant: FDD, Links: fx.links, Demands: fx.demands, Backend: fx.backend(t, 0, false), ASAPSeal: true})
	if err != nil {
		t.Fatal(err)
	}
	if !normal.Schedule.Equal(asap.Schedule) {
		t.Error("ASAP seal must not change the computed schedule")
	}
	if asap.ExecTime >= normal.ExecTime {
		t.Errorf("ASAP seal should be faster: %v vs %v", asap.ExecTime, normal.ExecTime)
	}
	if err := asap.Schedule.Verify(fx.net.Channel, fx.links, fx.demands); err != nil {
		t.Fatal(err)
	}
}

func TestExecTimeGrowsWithSkew(t *testing.T) {
	fx := gridFixture(t, 4, 54)
	var prev des.Time
	for i, skew := range []des.Time{des.Microsecond, 100 * des.Microsecond, 10 * des.Millisecond} {
		tm := DefaultTiming()
		tm.SkewBound = skew
		b, err := NewIdealBackend(fx.net.Channel, fx.net.Sens, fx.net.InterferenceDiameter(), tm, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{Variant: FDD, Links: fx.links, Demands: fx.demands, Backend: b})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.ExecTime <= prev {
			t.Errorf("execution time must grow with skew: %v then %v", prev, res.ExecTime)
		}
		prev = res.ExecTime
	}
}

func TestExecTimeGrowsWithKAndSMBytes(t *testing.T) {
	fx := gridFixture(t, 4, 55)
	baseK := fx.net.InterferenceDiameter()
	run := func(k, smBytes int) des.Time {
		tm := DefaultTiming()
		tm.SMBytes = smBytes
		b, err := NewIdealBackend(fx.net.Channel, fx.net.Sens, k, tm, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{Variant: FDD, Links: fx.links, Demands: fx.demands, Backend: b})
		if err != nil {
			t.Fatal(err)
		}
		return res.ExecTime
	}
	if run(baseK, 15) >= run(2*baseK, 15) {
		t.Error("doubling K must increase execution time")
	}
	if run(baseK, 15) >= run(baseK, 60) {
		t.Error("larger SCREAM payload must increase execution time")
	}
}

func TestStrictBackendFullProtocol(t *testing.T) {
	// The whole FDD protocol must work identically when every SCREAM is
	// simulated slot-by-slot over the sensitivity graph.
	fx := gridFixture(t, 4, 56)
	fast, err := Run(Config{Variant: FDD, Links: fx.links, Demands: fx.demands, Backend: fx.backend(t, 0, false)})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Run(Config{Variant: FDD, Links: fx.links, Demands: fx.demands, Backend: fx.backend(t, 0, true)})
	if err != nil {
		t.Fatal(err)
	}
	if !fast.Schedule.Equal(strict.Schedule) {
		t.Error("strict and fast backends must produce identical schedules")
	}
}

func TestKTooSmallBreaksProtocol(t *testing.T) {
	// Failure injection: a SCREAM that cannot cover the interference
	// diameter must make the protocol diverge (caught by the consensus
	// guard), not silently return a schedule.
	net, err := topo.NewLine(12, 30, topo.DefaultParams(), 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := route.BuildForest(net.Comm, []int{0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	links := f.Links()
	demands := traffic.Constant(len(links), 2)
	b, err := NewIdealBackend(net.Channel, net.Sens, 2 /* << ID=11 */, DefaultTiming(), true)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(Config{Variant: FDD, Links: links, Demands: demands, Backend: b, MaxRounds: 500})
	if err == nil {
		t.Fatal("K far below ID should break the protocol detectably")
	}
	if !strings.Contains(err.Error(), "divergence") && !strings.Contains(err.Error(), "termination") {
		t.Errorf("unexpected failure mode: %v", err)
	}
	t.Logf("K<ID failure surfaced as: %v", err)
}

func TestStateAndVariantStrings(t *testing.T) {
	if Dormant.String() != "DORMANT" || Control.String() != "CONTROL" ||
		Active.String() != "ACTIVE" || Allocated.String() != "ALLOCATED" ||
		Tried.String() != "TRIED" || Complete.String() != "COMPLETE" ||
		Terminate.String() != "TERMINATE" || State(42).String() != "state(42)" {
		t.Error("State strings broken")
	}
	if PDD.String() != "PDD" || FDD.String() != "FDD" || Variant(9).String() != "variant(9)" {
		t.Error("Variant strings broken")
	}
}

func TestPDDDeterministicPerSeed(t *testing.T) {
	fx := gridFixture(t, 4, 57)
	run := func(seed int64) *sched.Schedule {
		res, err := Run(Config{
			Variant: PDD, Probability: 0.5, RNG: rand.New(rand.NewSource(seed)),
			Links: fx.links, Demands: fx.demands, Backend: fx.backend(t, 0, false),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Schedule
	}
	if !run(1).Equal(run(1)) {
		t.Error("same seed must reproduce the same PDD schedule")
	}
}
