package core

// Tests for the fast paths inside IdealBackend: whole protocol runs must be
// indistinguishable from a backend that evaluates every handshake with the
// naive reference phys.Channel.HandshakeOutcome, and from one that runs
// every election and consensus SCREAM bit by bit.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"scream/internal/des"
	"scream/internal/phys"
)

// naiveBackend wraps an IdealBackend but evaluates handshakes with the
// reference implementation, bypassing the incremental engine.
type naiveBackend struct {
	*IdealBackend
}

func (b naiveBackend) HandshakeSlot(links []phys.Link) []bool {
	b.handshakes++
	b.elapsed += b.timing.HandshakeSlot()
	return b.ch.HandshakeOutcome(links)
}

func runBoth(t *testing.T, fx *fixture, cfg Config, seed int64) (*Result, *Result) {
	t.Helper()
	cfgInc := cfg
	cfgInc.Links, cfgInc.Demands = fx.links, fx.demands
	cfgInc.Backend = fx.backend(t, 0, false)
	cfgNaive := cfgInc
	cfgNaive.Backend = naiveBackend{fx.backend(t, 0, false)}
	if cfg.Variant == PDD {
		cfgInc.RNG = rand.New(rand.NewSource(seed))
		cfgNaive.RNG = rand.New(rand.NewSource(seed))
	}
	inc, err := Run(cfgInc)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Run(cfgNaive)
	if err != nil {
		t.Fatal(err)
	}
	return inc, naive
}

// TestIdealBackendHandshakeMatchesNaive: FDD and PDD runs driven through the
// incremental engine produce the same schedule, step/round counts and
// simulated time as runs against the naive reference backend.
func TestIdealBackendHandshakeMatchesNaive(t *testing.T) {
	for _, dim := range []int{4, 5} {
		for seed := int64(1); seed <= 4; seed++ {
			fx := gridFixture(t, dim, seed)
			for _, variant := range []Variant{FDD, PDD} {
				cfg := Config{Variant: variant}
				if variant == PDD {
					cfg.Probability = 0.4
				}
				inc, naive := runBoth(t, fx, cfg, seed)
				if !inc.Schedule.Equal(naive.Schedule) {
					t.Fatalf("dim %d seed %d %v: incremental schedule differs from naive", dim, seed, variant)
				}
				if inc.Rounds != naive.Rounds || inc.Steps != naive.Steps ||
					inc.Elections != naive.Elections || inc.Screams != naive.Screams {
					t.Fatalf("dim %d seed %d %v: stats diverge: %+v vs %+v", dim, seed, variant, inc, naive)
				}
				if inc.ExecTime != naive.ExecTime {
					t.Fatalf("dim %d seed %d %v: ExecTime %v vs %v", dim, seed, variant, inc.ExecTime, naive.ExecTime)
				}
			}
		}
	}
}

// TestFastControlPlaneMatchesReference: FDD and PDD runs on a fast-mode
// IdealBackend, which answers elections and consensus SCREAMs directly,
// return a Result deeply equal to runs on the same deployment with the
// backend hidden behind struct{ Backend } (the bitwise reference path), and
// both backends measure the same SCREAMs, handshakes and time. Covered:
// single-channel and 2 channels x 2 radios, ASAPSeal off and on, grid and
// uniform deployments, several seeds.
func TestFastControlPlaneMatchesReference(t *testing.T) {
	var fixtures []*fixture
	var names []string
	for seed := int64(1); seed <= 3; seed++ {
		fixtures = append(fixtures, gridFixture(t, 4+int(seed)%2, seed), uniformFixture(t, 30, 70+seed))
		names = append(names, fmt.Sprintf("grid/seed%d", seed), fmt.Sprintf("uniform/seed%d", 70+seed))
	}
	for fi, fx := range fixtures {
		for _, variant := range []Variant{FDD, PDD} {
			for _, channels := range []int{1, 2} {
				for _, asap := range []bool{false, true} {
					name := fmt.Sprintf("%s/%v/C%d/asap=%v", names[fi], variant, channels, asap)
					run := func(b Backend) *Result {
						cfg := Config{Variant: variant, Links: fx.links, Demands: fx.demands, Backend: b, ASAPSeal: asap}
						if channels > 1 {
							cfg.NumChannels, cfg.NumRadios = channels, 2
						}
						if variant == PDD {
							cfg.Probability = 0.4
							cfg.RNG = rand.New(rand.NewSource(int64(fi)))
						}
						res, err := Run(cfg)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						return res
					}
					fast, ref := fx.backend(t, 0, false), fx.backend(t, 0, false)
					got, want := run(fast), run(struct{ Backend }{ref})
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: fast result %+v, reference %+v", name, got, want)
					}
					if fast.ScreamCount() != ref.ScreamCount() || fast.HandshakeCount() != ref.HandshakeCount() || fast.Elapsed() != ref.Elapsed() {
						t.Fatalf("%s: fast backend measured %d SCREAMs / %d handshakes / %v, reference %d / %d / %v", name,
							fast.ScreamCount(), fast.HandshakeCount(), fast.Elapsed(), ref.ScreamCount(), ref.HandshakeCount(), ref.Elapsed())
					}
				}
			}
		}
	}
}

// TestIncrementalOutcomeArbitrarySequences fuzzes HandshakeSlot directly
// with call sequences the protocols never produce — wholesale set swaps,
// duplicate links, repeated owners — and checks every response against the
// reference implementation (exercising the engine's rebuild and fallback
// paths).
func TestIncrementalOutcomeArbitrarySequences(t *testing.T) {
	fx := gridFixture(t, 4, 7)
	rng := rand.New(rand.NewSource(11))
	b := fx.backend(t, 0, false)
	pool := fx.links
	for call := 0; call < 400; call++ {
		var req []phys.Link
		for len(req) == 0 {
			req = nil
			for _, l := range pool {
				if rng.Intn(3) == 0 {
					req = append(req, l)
				}
			}
			if len(req) > 0 {
				switch rng.Intn(5) {
				case 0: // duplicate link
					req = append(req, req[rng.Intn(len(req))])
				case 1: // two links, one owner
					l := req[rng.Intn(len(req))]
					req = append(req, phys.Link{From: l.From, To: (l.To + 1) % fx.net.NumNodes()})
				}
			}
		}
		got := b.HandshakeSlot(req)
		want := fx.net.Channel.HandshakeOutcome(req)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("call %d: outcome[%d] = %v, reference = %v, request %v", call, i, got[i], want[i], req)
			}
		}
	}
}

// TestCloneSharesTopologyNotState: a cloned backend starts with fresh time
// accounting and produces identical results.
func TestCloneSharesTopologyNotState(t *testing.T) {
	fx := gridFixture(t, 4, 3)
	b := fx.backend(t, 0, false)
	vars := make([]bool, b.NumNodes())
	vars[1] = true
	b.Scream(vars)
	b.HandshakeSlot(fx.links[:1])
	c := b.Clone()
	if c.Elapsed() != 0 || c.ScreamCount() != 0 || c.HandshakeCount() != 0 {
		t.Fatal("clone must start with zeroed accounting")
	}
	if c.K() != b.K() || c.NumNodes() != b.NumNodes() {
		t.Fatal("clone must share the deployment parameters")
	}
	var tm des.Time
	for i := 0; i < 3; i++ {
		out := c.HandshakeSlot(fx.links)
		ref := fx.net.Channel.HandshakeOutcome(fx.links)
		for j := range ref {
			if out[j] != ref[j] {
				t.Fatalf("clone outcome[%d] diverges from reference", j)
			}
		}
		if c.Elapsed() <= tm {
			t.Fatal("clone must bill time")
		}
		tm = c.Elapsed()
	}
}
