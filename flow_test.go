package scream

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func flowTestMesh(t *testing.T) *Mesh {
	t.Helper()
	m, err := NewGridMesh(GridMeshConfig{Rows: 4, Cols: 4, StepMeters: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// flowTestSpec is the pinned flow scenario of the root tests, run on
// flowTestMesh (mesh seed 1) through RunOptions.Mesh: Poisson arrivals at
// half the static capacity, run seed 7, an 8-packet service quota and
// 8-frame schedule reuse. P only matters to "pdd".
func flowTestSpec(scheduler string) ScenarioSpec {
	spec := testSpec()
	spec.Scheduler = scheduler
	spec.P = 0.8
	return spec
}

type flowCase struct {
	name string
	spec ScenarioSpec
}

// flowGoldenCases enumerates the pinned runs of the results golden: every
// registry scheduler static and under churn plus waypoint mobility, and the
// multi-channel schedulers at two channels.
func flowGoldenCases() []flowCase {
	var cases []flowCase
	for _, info := range Schedulers() {
		static := flowTestSpec(info.Name)
		cases = append(cases, flowCase{"static/" + info.Name, static})
		churn := static
		churn.HorizonSec = 0.4
		churn.Dynamics = &DynamicsSpec{
			FailRate:        8,
			MeanDowntimeSec: 0.04,
			Mobility:        "waypoint",
			SpeedMps:        10,
			PauseSec:        0.02,
			MoveIntervalSec: 0.01,
		}
		cases = append(cases, flowCase{"churn/" + info.Name, churn})
		if info.MultiChannel {
			multi := static
			multi.Channels = 2
			cases = append(cases, flowCase{"channels2/" + info.Name, multi})
		}
	}
	return cases
}

// runFlowCase runs one case on m and asserts packet conservation: every
// offered packet is delivered, dropped at a full queue, lost on a failed
// node or still queued at the horizon.
func runFlowCase(t *testing.T, m *Mesh, c flowCase) *FlowResult {
	t.Helper()
	res, err := RunWith(context.Background(), c.spec, RunOptions{Mesh: m})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if res.Delivered == 0 {
		t.Errorf("%s delivered nothing (offered %d)", c.name, res.Offered)
	}
	if got := res.Delivered + res.Dropped + res.LostOnFailure + res.FinalBacklog; got != res.Offered {
		t.Errorf("%s: conservation %d != offered %d", c.name, got, res.Offered)
	}
	return res
}

func TestRunFlow(t *testing.T) {
	m := flowTestMesh(t)
	if frame, err := m.FlowFrameTime(Timing{}); err != nil || frame <= 0 {
		t.Fatalf("frame time %v (err %v)", frame, err)
	}
	for _, c := range flowGoldenCases() {
		if c.spec.Dynamics == nil {
			runFlowCase(t, m, c)
		}
	}
	if _, err := RunWith(context.Background(), flowTestSpec("astrology"), RunOptions{Mesh: m}); err == nil {
		t.Error("unknown scheduler should fail")
	}
}

// TestRunFlowDynamics drives every scheduler through churn plus waypoint
// mobility on a private clone — the mesh itself must come out of the run
// untouched.
func TestRunFlowDynamics(t *testing.T) {
	m := flowTestMesh(t)
	before := m.Network.Channel.RxPowerMW(0, 1)
	for _, c := range flowGoldenCases() {
		if c.spec.Dynamics == nil {
			continue
		}
		res := runFlowCase(t, m, c)
		if res.FailEvents == 0 || res.MoveEvents == 0 {
			t.Errorf("%s: dynamics inert (%d fail, %d move events)", c.name, res.FailEvents, res.MoveEvents)
		}
	}
	if got := m.Network.Channel.RxPowerMW(0, 1); got != before {
		t.Fatalf("a run with dynamics mutated the mesh channel: %v -> %v", before, got)
	}
	if m.Network.IsDown(1) {
		t.Fatal("a run with dynamics marked a mesh node down")
	}
}

// TestFlowResultsGolden pins the FlowResult of every golden case byte for
// byte, as JSON. Regenerate with: go test -run TestFlowResultsGolden -update
func TestFlowResultsGolden(t *testing.T) {
	m := flowTestMesh(t)
	results := make(map[string]json.RawMessage)
	for _, c := range flowGoldenCases() {
		raw, err := json.Marshal(runFlowCase(t, m, c))
		if err != nil {
			t.Fatal(err)
		}
		results[c.name] = raw
	}
	got, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "flow_results_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var wantResults map[string]json.RawMessage
	if err := json.Unmarshal(want, &wantResults); err != nil {
		t.Fatal(err)
	}
	for name, raw := range results {
		var g, w bytes.Buffer
		json.Compact(&g, raw)
		json.Compact(&w, wantResults[name])
		if !bytes.Equal(g.Bytes(), w.Bytes()) {
			t.Errorf("%s diverges from %s:\n got %s\nwant %s", name, golden, g.Bytes(), w.Bytes())
		}
	}
	t.Fatalf("flow results diverge from %s; run with -update only after an intended change", golden)
}

// TestRadioParamsCSThreshold pins the carrier-sense sentinel semantics:
// DefaultRadioParams (NaN) derives beta * noise; any finite value — now
// including a literal 0 dBm — is used as given.
func TestRadioParamsCSThreshold(t *testing.T) {
	if !math.IsNaN(DefaultRadioParams().CSThresholdDBm) {
		t.Fatal("DefaultRadioParams should leave CSThresholdDBm explicitly unset (NaN)")
	}

	derived := flowTestMesh(t)
	p := derived.Network.Params
	if got, want := p.CSThresholdMW, p.NoiseMW*p.Beta; math.Abs(got-want)/want > 1e-12 {
		t.Errorf("NaN sentinel: CS threshold %v, want beta*noise %v", got, want)
	}

	radio := DefaultRadioParams()
	radio.CSThresholdDBm = 0 // a literal 0 dBm = 1 mW, previously unexpressible
	m, err := NewGridMesh(GridMeshConfig{Rows: 4, Cols: 4, StepMeters: 30, Seed: 1, Radio: radio})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Network.Params.CSThresholdMW; math.Abs(got-1) > 1e-12 {
		t.Errorf("explicit 0 dBm: CS threshold %v mW, want 1", got)
	}

	radio.CSThresholdDBm = -80
	m, err = NewGridMesh(GridMeshConfig{Rows: 4, Cols: 4, StepMeters: 30, Seed: 1, Radio: radio})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Network.Params.CSThresholdMW, 1e-8; math.Abs(got-want)/want > 1e-9 {
		t.Errorf("explicit -80 dBm: CS threshold %v mW, want %v", got, want)
	}
}
