package core

// Tests for the multi-channel protocol variant: both FDD and PDD must
// produce VerifyMulti-feasible channel-assigned schedules that serve the
// full demand, added channels must shorten the schedule on a contended mesh,
// and NumChannels <= 1 must leave the single-channel protocol untouched.

import (
	"math/rand"
	"testing"
)

func runMultiVariant(t *testing.T, fx *fixture, variant Variant, channels, radios int, seed int64) *Result {
	t.Helper()
	cfg := Config{
		Variant:     variant,
		Links:       fx.links,
		Demands:     fx.demands,
		Backend:     fx.backend(t, 0, false),
		NumChannels: channels,
		NumRadios:   radios,
	}
	if variant == PDD {
		cfg.Probability = 0.6
		cfg.RNG = rand.New(rand.NewSource(seed))
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("%v C=%d R=%d: %v", variant, channels, radios, err)
	}
	return res
}

func TestRunMultiChannelFeasibleAndShorter(t *testing.T) {
	fx := gridFixture(t, 6, 11)
	for _, variant := range []Variant{FDD, PDD} {
		single := runMultiVariant(t, fx, variant, 1, 1, 1)
		if err := single.Schedule.Verify(fx.net.Channel, fx.links, fx.demands); err != nil {
			t.Fatalf("%v single-channel: %v", variant, err)
		}
		prev := single.Schedule.Length()
		for _, c := range []int{2, 4} {
			res := runMultiVariant(t, fx, variant, c, 2, 1)
			if err := res.Schedule.VerifyMulti(fx.net.Channel, c, 2, fx.links, fx.demands); err != nil {
				t.Fatalf("%v C=%d: %v", variant, c, err)
			}
			if got := res.Schedule.NumChannelsUsed(); got > c {
				t.Fatalf("%v C=%d: schedule uses %d channels", variant, c, got)
			}
			if res.Schedule.Length() >= prev {
				t.Fatalf("%v: C=%d schedule (%d slots) not shorter than previous (%d)",
					variant, c, res.Schedule.Length(), prev)
			}
			if res.Rounds != res.Schedule.Length() {
				t.Fatalf("%v C=%d: %d rounds for %d slots", variant, c, res.Rounds, res.Schedule.Length())
			}
			prev = res.Schedule.Length()
		}
	}
}

// TestRunMultiChannelRadioBudgetRespected: with one radio per node, no node
// may appear as an endpoint of two placements in any slot even across
// channels; with two, at most twice.
func TestRunMultiChannelRadioBudgetRespected(t *testing.T) {
	fx := gridFixture(t, 5, 23)
	for _, radios := range []int{1, 2} {
		res := runMultiVariant(t, fx, FDD, 3, radios, 1)
		s := res.Schedule
		for i := 0; i < s.Length(); i++ {
			count := map[int]int{}
			for _, l := range s.Slot(i) {
				count[l.From]++
				count[l.To]++
			}
			for u, c := range count {
				if c > radios {
					t.Fatalf("radios=%d: slot %d uses node %d %d times: %v", radios, i, u, c, s.Slot(i))
				}
			}
		}
		if err := s.VerifyMulti(fx.net.Channel, 3, radios, fx.links, fx.demands); err != nil {
			t.Fatalf("radios=%d: %v", radios, err)
		}
	}
}

// TestRunMultiChannelSingleIsLegacy: NumChannels 0 and 1 must both take the
// unmodified single-channel code path — identical schedule, identical cost
// accounting, no channel assignment recorded.
func TestRunMultiChannelSingleIsLegacy(t *testing.T) {
	fx := gridFixture(t, 5, 31)
	run := func(channels int) *Result {
		res, err := Run(Config{
			Variant: FDD, Links: fx.links, Demands: fx.demands,
			Backend: fx.backend(t, 0, false), NumChannels: channels, NumRadios: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	legacy, one := run(0), run(1)
	if !legacy.Schedule.Equal(one.Schedule) {
		t.Fatal("NumChannels=1 changed the single-channel schedule")
	}
	if legacy.Steps != one.Steps || legacy.Screams != one.Screams || legacy.ExecTime != one.ExecTime {
		t.Fatalf("NumChannels=1 changed cost accounting: %+v vs %+v", legacy, one)
	}
	for i := 0; i < one.Schedule.Length(); i++ {
		if one.Schedule.SlotChannels(i) != nil {
			t.Fatalf("single-channel run recorded a channel assignment in slot %d", i)
		}
	}
}
