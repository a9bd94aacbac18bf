package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// cpuProfile is a running runtime/pprof CPU profile written to path.
type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

// Stop ends the profile and returns the CPU time per bucket, read back
// with the installed `go tool pprof -traces`.
func (p *cpuProfile) Stop() (map[string]time.Duration, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", p.path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return bucketTraces(out)
}

// bucketTraces parses `pprof -traces` output (blocks of "value leaf-frame"
// then caller frames, separated by dashed lines) and sums each sample's
// value into the bucket of its stack.
func bucketTraces(out []byte) (map[string]time.Duration, error) {
	buckets := make(map[string]time.Duration)
	var (
		val   time.Duration
		stack []string
	)
	flush := func() {
		if len(stack) > 0 {
			buckets[bucketOf(stack)] += val
		}
		stack, val = stack[:0], 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----") {
			flush()
			continue
		}
		if !strings.HasPrefix(line, " ") {
			continue // header lines (File:, Type:, ...)
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(stack) == 0 && len(fields) >= 2 {
			d, err := parseSampleValue(fields[0])
			if err != nil {
				return nil, err
			}
			val = d
			stack = append(stack, fields[1])
			continue
		}
		stack = append(stack, fields[0])
	}
	flush()
	return buckets, sc.Err()
}

// parseSampleValue parses a pprof sample value such as "10ms" or "1.20s".
func parseSampleValue(s string) (time.Duration, error) {
	if d, err := time.ParseDuration(s); err == nil {
		return d, nil
	}
	// Some pprof versions print bare nanosecond counts.
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("pprof: bad sample value %q", s)
	}
	return time.Duration(n), nil
}

// gcFrames mark a sample as garbage-collector work wherever they appear.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.markroot", "runtime.gcDrain",
}

// transparent packages charge their time to their caller: sorting under
// stats is stats' cost, the heap under des is des' cost.
var transparent = map[string]bool{
	"runtime": true, "sort": true, "slices": true, "maps": true, "container/heap": true,
	"math": true, "math/bits": true, "strconv": true, "strings": true, "bytes": true,
	"unicode/utf8": true, "reflect": true, "sync": true, "sync/atomic": true,
	"io": true, "bufio": true, "fmt": true, "time": true, "context": true, "errors": true,
	"unicode": true, "encoding/binary": true, "hash": true, "hash/fnv": true,
	"cmp": true, "unique": true,
}

// bucketOf maps one sample stack (leaf first) to a layer bucket:
//   - "gc" if any frame is garbage-collector work;
//   - "malloc" if the allocator is reached before any layer frame;
//   - otherwise the innermost frame's layer: scream/internal/<x>/... is x,
//     the root package scream is "api", this benchmark is "bench",
//     math/rand is "rand", encoding/json is "json", net/http and the network
//     stack under it are "http", runtime/pprof is "profiler";
//   - "runtime" when every frame is runtime or transparent (scheduler,
//     idle), and "other" for any other package.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcFrames {
			if strings.HasPrefix(fn, g) {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if pkg == "runtime" && strings.HasPrefix(fn, "runtime.mallocgc") {
			return "malloc"
		}
		if transparent[pkg] {
			continue
		}
		switch {
		case strings.HasPrefix(pkg, "scream/internal/"):
			x := strings.TrimPrefix(pkg, "scream/internal/")
			if i := strings.IndexByte(x, '/'); i >= 0 {
				x = x[:i]
			}
			return x
		case pkg == "scream":
			return "api"
		case pkg == "main" || strings.HasPrefix(pkg, "scream/screambench"):
			return "bench"
		case pkg == "math/rand" || pkg == "math/rand/v2":
			return "rand"
		case pkg == "encoding/json":
			return "json"
		case strings.HasPrefix(pkg, "net") || strings.HasPrefix(pkg, "vendor/golang.org/x/net") || pkg == "mime" || strings.HasPrefix(pkg, "mime/") ||
			pkg == "syscall" || pkg == "internal/poll" || strings.HasPrefix(pkg, "crypto/tls"):
			return "http"
		case pkg == "runtime/pprof" || pkg == "compress/flate" || pkg == "compress/gzip":
			return "profiler"
		case strings.HasPrefix(pkg, "internal/") || strings.HasPrefix(pkg, "runtime/"):
			continue
		}
		return "other"
	}
	return "runtime"
}

// funcPackage extracts the import path from a symbolized Go function name:
// "scream/internal/des.(*Engine).RunUntil" -> "scream/internal/des",
// "slices.SortFunc[...]" -> "slices", "main.main.func1" -> "main"; an
// assembly routine ("gcWriteBarrier") or generated helper is "runtime".
func funcPackage(fn string) string {
	if strings.HasPrefix(fn, "type:") || !strings.Contains(fn, ".") {
		return "runtime" // compiler-generated helpers and assembly routines
	}
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold other packages' paths
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
