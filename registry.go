package scream

// The public scheduler registry: one name-addressable table of every
// flow-scheduler variant. CLIs, the screamd daemon and scenario specs
// (ScenarioSpec.Scheduler) all resolve schedulers by name through
// SchedulerByName and enumerate them through Schedulers, backed by the
// internal/flow registry that also builds them.

import (
	"fmt"

	"scream/internal/flow"
)

// SchedulerInfo describes one registered flow scheduler. The JSON shape is
// served verbatim by screamd's /api/v1/schedulers endpoint.
type SchedulerInfo struct {
	// Name is the registry key: the value of flowsim -scheduler,
	// ScenarioSpec.Scheduler and SchedulerByName.
	Name string `json:"name"`
	// Display is the human label used for figure series ("Greedy", "FDD").
	Display string `json:"display"`
	// Doc is a one-line description of the scheduling discipline.
	Doc string `json:"doc"`
	// Distributed marks schedulers that pay real (non-genie) control cost
	// in simulated time (FDD, PDD).
	Distributed bool `json:"distributed"`
	// MultiChannel marks schedulers that accept ScenarioSpec.Channels > 1.
	MultiChannel bool `json:"multi_channel"`
}

func schedulerInfo(d flow.SchedulerDef) SchedulerInfo {
	return SchedulerInfo{
		Name:         d.Name,
		Display:      d.Display,
		Doc:          d.Doc,
		Distributed:  d.Distributed,
		MultiChannel: d.MultiChannel,
	}
}

// Schedulers enumerates the registered flow schedulers in reporting order.
// The returned slice is freshly allocated on every call: mutating it (or its
// entries) never affects the registry.
func Schedulers() []SchedulerInfo {
	defs := flow.SchedulerDefs()
	infos := make([]SchedulerInfo, len(defs))
	for i, d := range defs {
		infos[i] = schedulerInfo(d)
	}
	return infos
}

// SchedulerByName resolves a registry name ("greedy", "maxweight",
// "fanzhang", "fdd", "pdd", "tdma") to its scheduler description. Unknown
// names return an error listing every valid name.
func SchedulerByName(name string) (SchedulerInfo, error) {
	d, err := flow.SchedulerDefByName(name)
	if err != nil {
		return SchedulerInfo{}, fmt.Errorf("scream: %w", err)
	}
	return schedulerInfo(d), nil
}
