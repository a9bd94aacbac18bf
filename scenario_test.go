package scream

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func testSpec() ScenarioSpec {
	return ScenarioSpec{
		Name:           "test",
		Topology:       TopologySpec{Kind: "grid", Rows: 4, Cols: 4, StepMeters: 30},
		Traffic:        TrafficSpec{Kind: "poisson", Load: 0.5},
		Scheduler:      "greedy",
		HorizonSec:     0.3,
		Seed:           7,
		FramesPerEpoch: 8,
		MaxService:     8,
	}
}

// TestScenarioGolden pins the on-disk spec format: the checked-in document
// must decode, validate and run.
func TestScenarioGolden(t *testing.T) {
	spec, err := LoadScenario("testdata/scenario_grid.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered == 0 || res.Delivered == 0 {
		t.Fatalf("golden scenario inert: offered %d delivered %d", res.Offered, res.Delivered)
	}
}

// TestScenarioRoundTrip checks Marshal/Unmarshal is the identity, including
// the pointer-valued knobs JSON makes awkward (nil-vs-zero CS threshold).
func TestScenarioRoundTrip(t *testing.T) {
	cs := 0.0
	spec := testSpec()
	spec.Topology.Gateways = []int{0, 15}
	spec.Topology.Radio = &RadioSpec{NumRadios: 2, CSThresholdDBm: &cs}
	spec.Traffic = TrafficSpec{Kind: "zipf", Load: 1.5, ZipfS: 1.2, ZipfMax: 16}
	spec.Dynamics = &DynamicsSpec{FailRate: 0.5, MeanDowntimeSec: 0.2, Mobility: "waypoint", SpeedMps: 5}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var got ScenarioSpec
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", got, spec)
	}
}

// TestScenarioStrictDecode: unknown fields anywhere in the document are
// rejected — a typoed knob must not silently run the default.
func TestScenarioStrictDecode(t *testing.T) {
	cases := []string{
		`{"horizon_secs": 1}`,
		`{"topology": {"kind": "grid", "rows": 4, "cols": 4, "step_meters": 30}}`,
		`{"traffic": {"kind": "poisson", "lod": 0.5}}`,
		`{"dynamics": {"failrate": 1}}`,
	}
	for _, doc := range cases {
		var spec ScenarioSpec
		if err := json.Unmarshal([]byte(doc), &spec); err == nil {
			t.Errorf("unknown field accepted: %s", doc)
		}
	}
}

func TestScenarioValidate(t *testing.T) {
	bad := []struct {
		name   string
		mutate func(*ScenarioSpec)
		want   string
	}{
		{"no topology kind", func(s *ScenarioSpec) { s.Topology.Kind = "" }, "topology.kind"},
		{"unknown topology", func(s *ScenarioSpec) { s.Topology.Kind = "torus" }, "torus"},
		{"no rows", func(s *ScenarioSpec) { s.Topology.Rows = 0 }, "rows"},
		{"no traffic kind", func(s *ScenarioSpec) { s.Traffic.Kind = "" }, "traffic.kind"},
		{"unknown traffic", func(s *ScenarioSpec) { s.Traffic.Kind = "fractal" }, "fractal"},
		{"both rates", func(s *ScenarioSpec) { s.Traffic.RatePps = 10 }, "not both"},
		{"no rate", func(s *ScenarioSpec) { s.Traffic.Load = 0 }, "load or rate_pps"},
		{"unknown scheduler", func(s *ScenarioSpec) { s.Scheduler = "astrology" }, "astrology"},
		{"pdd without p", func(s *ScenarioSpec) { s.Scheduler = "pdd" }, "pdd needs p"},
		{"no horizon", func(s *ScenarioSpec) { s.HorizonSec = 0 }, "horizon_sec"},
		{"bad mobility", func(s *ScenarioSpec) { s.Dynamics = &DynamicsSpec{Mobility: "teleport"} }, "teleport"},
		{"maxweight on two channels", func(s *ScenarioSpec) { s.Scheduler, s.Channels = "maxweight", 2 }, "single-channel"},
		{"fanzhang on two channels", func(s *ScenarioSpec) { s.Scheduler, s.Channels = "fanzhang", 2 }, "single-channel"},
		{"more channels than nodes", func(s *ScenarioSpec) { s.Channels = 17 }, "16 nodes"},
		{"two billion channels", func(s *ScenarioSpec) { s.Channels = 2000000000 }, "16 nodes"},
		{"more channels than uniform nodes", func(s *ScenarioSpec) {
			s.Topology = TopologySpec{Kind: "uniform", Nodes: 30, SideMeters: 200}
			s.Channels = 31
		}, "30 nodes"},
	}
	for _, tc := range bad {
		spec := testSpec()
		tc.mutate(&spec)
		err := spec.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	good := []struct {
		name   string
		mutate func(*ScenarioSpec)
	}{
		{"single-channel scheduler on one channel", func(s *ScenarioSpec) { s.Scheduler, s.Channels = "maxweight", 1 }},
		{"one channel per node", func(s *ScenarioSpec) { s.Channels = 16 }},
		// rows x cols wraps to 0 in int arithmetic; the node count must
		// saturate instead, so two channels still fit.
		{"2^32 x 2^32 grid", func(s *ScenarioSpec) { s.Topology.Rows, s.Topology.Cols, s.Channels = 1<<32, 1<<32, 2 }},
	}
	for _, tc := range good {
		spec := testSpec()
		tc.mutate(&spec)
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
	// The unknown-scheduler error lists the valid names.
	spec := testSpec()
	spec.Scheduler = "astrology"
	if err := spec.Validate(); err == nil || !strings.Contains(err.Error(), "greedy") {
		t.Errorf("unknown-scheduler error should list valid names, got %v", err)
	}
}

// TestScenarioValidateDurations: every seconds field rejects NaN, ±Inf and
// values whose nanosecond ticks overflow int64, naming the field and the
// bound, while the largest representable magnitude still validates.
func TestScenarioValidateDurations(t *testing.T) {
	fields := []struct {
		name string
		set  func(*ScenarioSpec, float64)
	}{
		{"horizon_sec", func(s *ScenarioSpec, v float64) { s.HorizonSec = v }},
		{"idle_wait_sec", func(s *ScenarioSpec, v float64) { s.IdleWaitSec = v }},
		{"traffic.mean_on_sec", func(s *ScenarioSpec, v float64) { s.Traffic.Kind = "bursty"; s.Traffic.MeanOnSec = v }},
		{"traffic.mean_off_sec", func(s *ScenarioSpec, v float64) { s.Traffic.Kind = "bursty"; s.Traffic.MeanOffSec = v }},
		{"dynamics.mean_downtime_sec", func(s *ScenarioSpec, v float64) {
			s.Dynamics = &DynamicsSpec{FailRate: 0.1, MeanDowntimeSec: v}
		}},
		{"dynamics.pause_sec", func(s *ScenarioSpec, v float64) {
			s.Dynamics = &DynamicsSpec{Mobility: "waypoint", SpeedMps: 1, PauseSec: v}
		}},
		{"dynamics.move_interval_sec", func(s *ScenarioSpec, v float64) {
			s.Dynamics = &DynamicsSpec{Mobility: "waypoint", SpeedMps: 1, MoveIntervalSec: v}
		}},
	}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 9.3e9, maxSimSeconds}
	for _, f := range fields {
		for _, v := range bad {
			spec := testSpec()
			f.set(&spec, v)
			err := spec.Validate()
			if err == nil {
				t.Errorf("%s = %g: validated", f.name, v)
				continue
			}
			if !strings.Contains(err.Error(), f.name) || !strings.Contains(err.Error(), "9223372037 s") {
				t.Errorf("%s = %g: error %q should name the field and the maximum", f.name, v, err)
			}
		}
		// Just inside the bound, the tick count is representable.
		spec := testSpec()
		f.set(&spec, math.Nextafter(maxSimSeconds, 0))
		if err := spec.Validate(); err != nil && strings.Contains(err.Error(), f.name) {
			t.Errorf("%s just below the maximum: %v", f.name, err)
		}
	}
	// The overflow used to surface from Run as a misleading error.
	spec := testSpec()
	spec.HorizonSec = 1e300
	if _, err := Run(context.Background(), spec); err == nil || !strings.Contains(err.Error(), "horizon_sec = 1e+300") {
		t.Errorf("Run with horizon_sec 1e300: %v", err)
	}
}

// TestRunDeterministic: the same spec produces the identical result, and the
// epoch stream's final cumulative counters agree with it.
func TestRunDeterministic(t *testing.T) {
	spec := testSpec()
	var last EpochUpdate
	var epochs int
	a, err := RunWith(context.Background(), spec, RunOptions{OnEpoch: func(u EpochUpdate) {
		last = u
		epochs++
	}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same spec, different results:\n%+v\n%+v", a, b)
	}
	if epochs == 0 {
		t.Fatal("OnEpoch never fired")
	}
	if last.Offered != a.Offered || last.Delivered != a.Delivered || last.Dropped != a.Dropped {
		t.Fatalf("final epoch update %+v disagrees with result offered=%d delivered=%d dropped=%d",
			last, a.Offered, a.Delivered, a.Dropped)
	}
}

// TestRunCancel: a canceled context aborts the run with the context error.
func TestRunCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, testSpec()); err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("canceled run returned %v", err)
	}
}

// TestScenarioClone: mutating a clone (slices and pointers included) never
// leaks into the original.
func TestScenarioClone(t *testing.T) {
	cs := -80.0
	spec := testSpec()
	spec.Topology.Gateways = []int{0, 3}
	spec.Topology.Radio = &RadioSpec{CSThresholdDBm: &cs}
	spec.Dynamics = &DynamicsSpec{FailRate: 1}
	c := spec.Clone()
	c.Topology.Gateways[0] = 99
	*c.Topology.Radio.CSThresholdDBm = 0
	c.Topology.Radio.NumRadios = 4
	c.Dynamics.FailRate = 9
	if spec.Topology.Gateways[0] != 0 || *spec.Topology.Radio.CSThresholdDBm != -80 ||
		spec.Topology.Radio.NumRadios != 0 || spec.Dynamics.FailRate != 1 {
		t.Fatalf("Clone shares memory with the original: %+v", spec)
	}
}
