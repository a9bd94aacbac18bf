package phys_test

// Contract tests that need a non-dense Engine. They live in the external
// test package because the spatial engine imports phys.

import (
	"strings"
	"testing"

	"scream/internal/geom"
	"scream/internal/phys"
	"scream/internal/phys/spatial"
)

// TestSlotStateOutcomesNeedsDenseEngine pins Outcomes' contract: it reads
// the dense channel's RX matrix, so on any other engine it panics with a
// message naming that requirement instead of answering from a conservative
// model.
func TestSlotStateOutcomesNeedsDenseEngine(t *testing.T) {
	idx, err := spatial.New(spatial.Config{
		Pos:       []geom.Point{{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 60, Y: 0}},
		TxPowerMW: []float64{100, 100, 100},
		PathLoss:  phys.DefaultLogDistance(),
		NoiseMW:   phys.DBm(-96).MilliWatts(),
		Beta:      phys.DB(10).Linear(),
	})
	if err != nil {
		t.Fatal(err)
	}
	st := phys.NewSlotState(idx)
	st.Add(phys.Link{From: 0, To: 1})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "dense *Channel") {
			t.Fatalf("Outcomes on a spatial engine: recovered %q, want a panic naming the dense *Channel requirement", msg)
		}
	}()
	st.Outcomes()
}
