package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness report reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runResult is the last line a run prints.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// parseLastLine decodes the JSON object on the last non-empty line of out.
func parseLastLine(out []byte) (*runResult, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	var r runResult
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, fmt.Errorf("last line is not a result: %q", last)
	}
	return &r, nil
}

// steadiness runs each named workload (all when names is empty) runs times
// with seeds 1..runs, as child processes of this binary, and prints for
// every metric its median, quartiles and spread ((q3-q1)/median) against
// the bound in BENCHMARK.json and a third of it.
func steadiness(names string, runs int, seconds float64, trace bool) error {
	bounds := make(map[string]float64)
	raw, err := repoFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	var selected []string
	if names == "" {
		for _, w := range workloads {
			selected = append(selected, w.name)
		}
	} else {
		selected = strings.Split(names, ",")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	traceArg := "0"
	defs := endToEnd
	if trace {
		traceArg = "1"
		defs = perLayer
	}
	wide := 0
	for _, name := range selected {
		if _, ok := findWorkload(name); !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		values := make(map[string][]float64)
		for seed := 1; seed <= runs; seed++ {
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", traceArg)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %v\n%s", name, seed, err, stderr.String())
			}
			r, err := parseLastLine(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %v", name, seed, err)
			}
			if !r.Correct || r.Failed != 0 {
				return fmt.Errorf("%s seed %d: correct=%v failed=%d of %d", name, seed, r.Correct, r.Failed, r.Attempted)
			}
			for k, v := range r.Metrics {
				values[k] = append(values[k], v.Value)
			}
			fmt.Fprintf(os.Stderr, "steady: %s seed %d done\n", name, seed)
		}
		fmt.Printf("%-16s %-34s %12s %12s %12s %8s %8s %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
		for _, d := range defs {
			xs := values[d.name]
			q1, q2, q3 := quartiles(xs)
			sp := spread(xs)
			verdict := "-"
			if b, ok := bounds[d.name]; ok && !trace {
				switch {
				case d.name == "setup_s":
					verdict = "setup (spread not gated)"
				case sp <= b/3:
					verdict = "steady (< bound/3)"
				case sp <= b:
					verdict = "within bound"
				default:
					verdict = "TOO WIDE"
					wide++
				}
				fmt.Printf("%-16s %-34s %12.6g %12.6g %12.6g %8.4f %8.3f %s\n", name, d.name, q1, q2, q3, sp, b, verdict)
				continue
			}
			fmt.Printf("%-16s %-34s %12.6g %12.6g %12.6g %8.4f %8s %s\n", name, d.name, q1, q2, q3, sp, "", verdict)
		}
	}
	if wide > 0 {
		return fmt.Errorf("%d metric spreads exceed their bounds", wide)
	}
	return nil
}
