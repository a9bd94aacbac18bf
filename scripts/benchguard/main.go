// Command benchguard turns `go test -bench -benchmem` output into a committed
// JSON baseline and guards CI against performance regressions.
//
// It reads benchmark output on stdin (or -in), extracts ns/op, B/op and
// allocs/op per benchmark, and writes them as JSON (-out). With -baseline it
// compares the fresh numbers against the committed file, prints a Markdown
// delta table (also appended to -summary, e.g. $GITHUB_STEP_SUMMARY), and
// exits non-zero when any baseline benchmark disappeared, slowed by more
// than -max-regress in ns/op, or grew its allocs/op by more than
// allocTolerance. Timings are machine-sensitive, so their gate is a coarse
// tripwire; allocation counts are deterministic for a given toolchain, so
// theirs is tight.
//
// Typical CI usage (the sweep is run a few times; benchguard keeps each
// benchmark's minimum of every column, which tames scheduling noise):
//
//	for i in 1 2 3; do \
//	    go test -run '^$' -bench 'GreedyPhysical|FlowEpoch|SlotState|EngineAtStep|Percentiles' \
//	        -benchtime 100ms -benchmem ./...; done | \
//	    go run ./scripts/benchguard -out BENCH_PR.json \
//	    -baseline BENCH_BASELINE.json -summary "$GITHUB_STEP_SUMMARY"
//
// Refreshing the committed baseline is the same command with
// -out BENCH_BASELINE.json and no -baseline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// allocTolerance is the allocs/op gate: the fractional growth a benchmark
// may show before it fails. It only absorbs the few allocations that
// goroutine scheduling moves between runs; a benchmark at zero allocations
// must stay there.
const allocTolerance = 0.02

// result is one benchmark's numbers, each the minimum over the repetitions
// in the input.
type result struct {
	NsOp     float64 `json:"ns_op"`
	BytesOp  float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
}

// parseLine reads one result line, e.g.
//
//	BenchmarkFlowEpoch-8   3330   659820 ns/op   731.0 delivered_pkts   404344 B/op   571 allocs/op
//
// It returns ok=false for lines that are not benchmark results, and an
// error for a result line without the -benchmem columns.
func parseLine(line string) (name string, r result, ok bool, err error) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", r, false, nil
	}
	if _, err := strconv.Atoi(f[1]); err != nil {
		return "", r, false, nil
	}
	name = f[0]
	// Strip the -GOMAXPROCS suffix the testing package appends.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	seen := 0
	for i := 2; i+1 < len(f); i += 2 {
		var dst *float64
		switch f[i+1] {
		case "ns/op":
			dst = &r.NsOp
		case "B/op":
			dst = &r.BytesOp
		case "allocs/op":
			dst = &r.AllocsOp
		default:
			continue // custom metrics reported through b.ReportMetric
		}
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", r, false, fmt.Errorf("bad %s in %q: %w", f[i+1], line, err)
		}
		*dst = v
		seen++
	}
	if seen == 0 {
		return "", r, false, nil
	}
	if seen != 3 {
		return "", r, false, fmt.Errorf("%s: need ns/op, B/op and allocs/op (run go test with -benchmem): %q", name, line)
	}
	return name, r, true, nil
}

func parseBench(r io.Reader) (map[string]result, error) {
	out := make(map[string]result)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		name, res, ok, err := parseLine(sc.Text())
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		// The input may hold several repetitions of the suite; keep the
		// minimum of each column, the least-disturbed measurement.
		if cur, seen := out[name]; seen {
			res.NsOp = min(res.NsOp, cur.NsOp)
			res.BytesOp = min(res.BytesOp, cur.BytesOp)
			res.AllocsOp = min(res.AllocsOp, cur.AllocsOp)
		}
		out[name] = res
	}
	return out, sc.Err()
}

func readJSON(path string) (map[string]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]result)
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

func writeJSON(path string, results map[string]result) error {
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// delta is the fractional change from base to cur; growth from zero is
// infinite, so a benchmark that stopped being allocation-free always fails.
func delta(base, cur float64) float64 {
	switch {
	case cur == base:
		return 0
	case base == 0:
		return 1e9
	}
	return (cur - base) / base
}

// compare renders the delta table and returns the names of benchmarks that
// regressed beyond the gates (or vanished from the fresh results).
func compare(baseline, fresh map[string]result, maxRegress float64) (table string, failures []string) {
	var b strings.Builder
	fmt.Fprintf(&b, "| benchmark | baseline ns/op | current ns/op | delta | baseline allocs/op | current allocs/op | current B/op |\n")
	fmt.Fprintf(&b, "|---|---:|---:|---:|---:|---:|---:|\n")
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := baseline[name]
		cur, ok := fresh[name]
		if !ok {
			fmt.Fprintf(&b, "| %s | %.0f | MISSING | — | %.0f | MISSING | — |\n", name, base.NsOp, base.AllocsOp)
			failures = append(failures, name+" (missing from results)")
			continue
		}
		d := delta(base.NsOp, cur.NsOp)
		nsMark := ""
		if d > maxRegress {
			nsMark = " ❌"
			failures = append(failures, fmt.Sprintf("%s (ns/op +%.1f%% > +%.0f%% allowed)", name, d*100, maxRegress*100))
		}
		allocMark := ""
		if ad := delta(base.AllocsOp, cur.AllocsOp); ad > allocTolerance {
			allocMark = " ❌"
			failures = append(failures, fmt.Sprintf("%s (allocs/op %.0f -> %.0f, over +%.0f%% allowed)", name, base.AllocsOp, cur.AllocsOp, allocTolerance*100))
		}
		fmt.Fprintf(&b, "| %s | %.0f | %.0f | %+.1f%%%s | %.0f | %.0f%s | %.0f |\n",
			name, base.NsOp, cur.NsOp, d*100, nsMark, base.AllocsOp, cur.AllocsOp, allocMark, cur.BytesOp)
	}
	var extras []string
	for name := range fresh {
		if _, ok := baseline[name]; !ok {
			extras = append(extras, name)
		}
	}
	sort.Strings(extras)
	for _, name := range extras {
		cur := fresh[name]
		fmt.Fprintf(&b, "| %s | — | %.0f | new | — | %.0f | %.0f |\n", name, cur.NsOp, cur.AllocsOp, cur.BytesOp)
	}
	return b.String(), failures
}

func run() error {
	var (
		in         = flag.String("in", "", "read benchmark output from this file instead of stdin")
		out        = flag.String("out", "", "write parsed results as JSON to this file")
		baseline   = flag.String("baseline", "", "compare against this committed JSON baseline")
		maxRegress = flag.Float64("max-regress", 0.30, "maximum allowed fractional ns/op regression per benchmark")
		summary    = flag.String("summary", "", "append the Markdown delta table to this file (e.g. $GITHUB_STEP_SUMMARY)")
	)
	flag.Parse()

	src := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	fresh, err := parseBench(src)
	if err != nil {
		return err
	}
	if len(fresh) == 0 {
		return fmt.Errorf("no benchmark results found in input")
	}
	if *out != "" {
		if err := writeJSON(*out, fresh); err != nil {
			return err
		}
		fmt.Printf("wrote %d benchmark results to %s\n", len(fresh), *out)
	}
	if *baseline == "" {
		return nil
	}
	base, err := readJSON(*baseline)
	if err != nil {
		return err
	}
	table, failures := compare(base, fresh, *maxRegress)
	fmt.Print(table)
	if *summary != "" {
		f, err := os.OpenFile(*summary, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(f, "## Benchmark regression check\n\n%s\n", table); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchmark regression: %s", strings.Join(failures, "; "))
	}
	fmt.Printf("all %d tracked benchmarks within +%.0f%% ns/op and +%.0f%% allocs/op of baseline\n",
		len(base), *maxRegress*100, allocTolerance*100)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}
