package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"time"

	"scream"
	"scream/internal/obs"
	"scream/internal/serve"
)

const (
	// serveRate is the open-loop offered load of the traced run, in
	// sessions per second, about half the closed-loop capacity measured on
	// a 2-core x86-64 box.
	serveRate = 100.0
	// adhocSeeds is how many distinct ad hoc specs the POSTs cycle through.
	adhocSeeds = 64
	// closedBlock is the block of sessions whose CPU time is cpu_s, run
	// back to back by one client on one connection, so that the process
	// CPU time spent between a session's send and its last byte is that
	// session's cost, client and server together.
	closedBlock = 256
	// warmSessions run closed-loop before anything is timed.
	warmSessions = 256
	// preloaded scenarios, named preloadedName-<k>, differ only in seed.
	preloaded     = 8
	preloadedName = "bench-grid"
	scenarioFile  = "testdata/scenario_grid.json"
)

type serveBench struct {
	rec     *Recorder // clock origin for every timestamp
	hs      *httptest.Server
	client  *http.Client
	workers int

	preSpecs  []scream.ScenarioSpec
	preMeshes []*scream.Mesh
	adhoc     []scream.ScenarioSpec
	bodies    [][]byte
}

// sessionRec is one session as the client saw it; times are recorder
// nanoseconds.
type sessionRec struct {
	idx                          int
	due, sent, start, first, end int64
	cpu                          time.Duration // process CPU time from send to result
	bytes, events, epochs        int
	id                           int64
	result                       []byte
	traceBytes                   int
	err                          error
}

func (s *sessionRec) latencyMS() float64 { return float64(s.end-s.due) / 1e6 }

// specIndex is the scenario session i runs: even sessions POST ad hoc
// spec i/2 mod adhocSeeds, odd ones run preloaded scenario i/2 mod
// preloaded.
func (b *serveBench) specIndex(i int) (pre bool, k int) {
	if i%2 == 1 {
		return true, (i / 2) % preloaded
	}
	return false, (i / 2) % adhocSeeds
}

func runServeSessions(cfg runConfig) (*report, error) {
	rep := newReport()
	b, setupS, err := setupServe(cfg.seed)
	if err != nil {
		return nil, err
	}
	defer b.close()

	// Warm-up: closed-loop sessions, checked like the rest.
	warm := b.closedLoop(warmSessions, 0, b.workers)
	refs := b.check(rep, warm, nil)

	if !cfg.trace {
		var ms0, ms1, ms2 runtime.MemStats
		// Each block is checked as soon as it ends and its records are
		// dropped, so the live heap holds the server's state and not a
		// number of session records that grows with the machine's speed.
		// Allocation counts only the blocks themselves.
		var blocks, wall, opMS, lat []float64
		var alloc uint64
		var speed speedGauge
		sessions := 0
		end := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
		for len(blocks) < 3 || time.Now().Before(end) {
			speed.sample()
			runtime.ReadMemStats(&ms0)
			t0, c0 := time.Now(), cpuNow()
			block := b.closedLoop(closedBlock, sessions, 1)
			blocks = append(blocks, (cpuNow() - c0).Seconds())
			wall = append(wall, time.Since(t0).Seconds())
			runtime.ReadMemStats(&ms1)
			alloc += ms1.TotalAlloc - ms0.TotalAlloc
			sessions += len(block)
			refs = b.check(rep, block, refs)
			for _, s := range block {
				opMS = append(opMS, float64(s.cpu)/1e6)
			}
			blockLat, _ := latencies(block)
			lat = append(lat, blockLat...)
		}
		// Twice, so that sync.Pool caches, which survive one collection,
		// are gone too.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms2)
		b.serverCheck(rep, len(warm)+sessions)
		b.digest(rep, cfg.seed, refs)
		rep.metrics["setup_s"] = setupS
		ops := speed.scaleEach(opMS, closedBlock)
		rep.metrics["cpu_s"] = median(speed.scaleEach(blocks, 1))
		rep.metrics["op_cpu_ms_p50"] = median(ops)
		rep.metrics["op_cpu_ms_tail"] = percentile(ops, 95)
		rep.metrics["alloc_kb_per_op"] = float64(alloc) / 1024 / float64(sessions)
		rep.metrics["live_heap_mb"] = float64(ms2.HeapAlloc) / (1 << 20)
		rep.note("%d sessions in %d blocks of %d on one connection (block wall median %.4f s, session wall p50 %.3f ms); %d samples beyond p95, ten-beyond rule %v",
			sessions, len(blocks), closedBlock, median(wall), median(lat), beyond(len(opMS), 95), tailOK(len(opMS), 95))
		rep.noteSpeed(&speed)
		return rep, nil
	}

	// Traced: the same open-loop schedule untraced, then traced (client
	// spans, per-session trace fetch, CPU profile).
	plain := b.openLoop(cfg.seed, cfg.seconds/2, false)
	prof, err := startCPUProfile(benchPath("cpu-serve-sessions.pprof"))
	if err != nil {
		return nil, err
	}
	traced := b.openLoop(cfg.seed, cfg.seconds/2, true)
	buckets, err := prof.Stop()
	if err != nil {
		return nil, err
	}
	rep.setProfileShares(buckets)
	refs = b.check(rep, plain, refs)
	b.check(rep, traced, refs) // traced results must equal the untraced ones
	b.serverCheck(rep, len(warm)+len(plain)+len(traced))

	for _, s := range traced {
		sid := b.rec.Add(Span{Name: "session", Start: s.due, End: s.end})
		b.rec.Add(Span{Parent: sid, Name: "queue", Start: s.due, End: s.sent})
		b.rec.Add(Span{Parent: sid, Name: "admit", Start: s.sent, End: s.start})
		b.rec.Add(Span{Parent: sid, Name: "first_epoch", Start: s.start, End: s.first})
		b.rec.Add(Span{Parent: sid, Name: "result", Start: s.first, End: s.end})
	}
	sp := summarize(b.rec.Spans())
	var first, bytesPer, events, traceBytes, service []float64
	for _, s := range traced {
		first = append(first, float64(s.first-s.due)/1e6)
		bytesPer = append(bytesPer, float64(s.bytes))
		events = append(events, float64(s.events))
		traceBytes = append(traceBytes, float64(s.traceBytes))
		service = append(service, float64(s.end-s.sent)/1e6)
	}
	inproc := b.inProcessMS(traced)
	latT, lag := latencies(traced)
	latU, _ := latencies(plain)
	var overhead, serviceOver []float64
	for i := range traced {
		overhead = append(overhead, latT[i]-inproc[i])
		serviceOver = append(serviceOver, service[i]-inproc[i])
	}
	rep.metrics["serve.admit_ms_p50"] = median(sp["admit"].durMS)
	rep.metrics["serve.first_epoch_ms_p50"] = median(first)
	rep.metrics["serve.overhead_ms_p50"] = median(overhead)
	rep.metrics["serve.inproc_ms_p50"] = median(inproc)
	rep.metrics["serve.bytes_per_session"] = sum(bytesPer) / float64(len(traced))
	rep.metrics["serve.events_per_session"] = sum(events) / float64(len(traced))
	rep.metrics["serve.trace_bytes_per_session"] = sum(traceBytes) / float64(len(traced))
	rep.metrics["serve.rejected"] = b.counter("scream_serve_sessions_rejected_total")
	rep.metrics["serve.gen_lag_ms_p95"] = percentile(lag, 95)
	rep.metrics["flow.epochs_per_run"] = median(events) - 2 // start and result frame the epochs
	rep.metrics["trace.overhead_share"] = median(latT)/median(latU) - 1
	rep.note("traced %d sessions: session p50 %.3f ms = queue %.3f + admit %.3f + first epoch %.3f + result %.3f (medians); in-process run p50 %.3f ms",
		len(traced), median(latT), median(sp["queue"].durMS), median(sp["admit"].durMS),
		median(sp["first_epoch"].durMS), median(sp["result"].durMS), median(inproc))
	rep.note("serve.overhead_ms_p50 counts from the due time; from the send time (no client queueing) it is %.3f ms", median(serviceOver))
	return rep, b.rec.WriteJSONL(benchPath("spans-serve-sessions.jsonl"))
}

// setupServe starts the service the way cmd/screamd configures it — one
// registry wired into the runtime instrumentation, the default session cap
// and trace capture, the scenario preloaded — behind a loopback listener,
// repeatedly (see repeatSetup), and keeps the last instance.
func setupServe(seed int64) (*serveBench, float64, error) {
	raw, err := repoFile(scenarioFile)
	if err != nil {
		return nil, 0, err
	}
	base, err := scream.ParseScenario(raw)
	if err != nil {
		return nil, 0, err
	}
	b := &serveBench{rec: newRecorder(), workers: runtime.NumCPU()}
	for k := 0; k < preloaded; k++ {
		s := base.Clone()
		s.Name = fmt.Sprintf("%s-%d", preloadedName, k)
		s.Seed = deriveSeed(seed, 1<<20+int64(k))
		b.preSpecs = append(b.preSpecs, s)
	}
	for i := 0; i < adhocSeeds; i++ {
		s := base.Clone()
		s.Seed = deriveSeed(seed, int64(i))
		body, err := json.Marshal(s)
		if err != nil {
			return nil, 0, err
		}
		b.adhoc = append(b.adhoc, s)
		b.bodies = append(b.bodies, body)
	}
	setupS, err := repeatSetup(func() error {
		// Each repetition replaces the previous instance; its shutdown is
		// timed with it, so no more than one server is ever up.
		if b.hs != nil {
			b.close()
		}
		reg := scream.NewObsRegistry()
		scream.EnableRuntimeMetrics(reg)
		srv, err := serve.New(serve.Config{Scenarios: b.preSpecs, Metrics: reg, Version: "bench"})
		if err != nil {
			return err
		}
		b.hs = httptest.NewServer(srv)
		b.client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: b.workers, DisableCompression: true,
		}}
		resp, err := b.client.Get(b.hs.URL + "/healthz")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		return resp.Body.Close()
	})
	if err != nil {
		return nil, 0, err
	}
	for _, s := range b.preSpecs {
		m, err := s.Mesh()
		if err != nil {
			return nil, 0, err
		}
		b.preMeshes = append(b.preMeshes, m)
	}
	return b, setupS, nil
}

func (b *serveBench) close() {
	b.client.CloseIdleConnections()
	b.hs.Close()
}

// session runs session i and reads its stream to the end.
func (b *serveBench) session(i int, due int64, fetchTrace bool) *sessionRec {
	s := &sessionRec{idx: i, due: due}
	pre, k := b.specIndex(i)
	url := b.hs.URL + "/api/v1/run"
	var body io.Reader
	if pre {
		url += "?scenario=" + b.preSpecs[k].Name
	} else {
		body = bytes.NewReader(b.bodies[k])
	}
	c0 := cpuNow()
	s.sent = b.rec.now()
	defer func() { s.cpu = cpuNow() - c0 }()
	resp, err := b.client.Post(url, "application/json", body)
	if err != nil {
		s.err = err
		s.end = b.rec.now()
		return s
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		s.end = b.rec.now()
		s.err = fmt.Errorf("HTTP %d", resp.StatusCode)
		return s
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Bytes()
		s.bytes += len(line) + 1
		s.events++
		switch {
		case bytes.HasPrefix(line, []byte(`{"type":"epoch"`)):
			if s.epochs == 0 {
				s.first = b.rec.now()
			}
			s.epochs++
		case bytes.HasPrefix(line, []byte(`{"type":"start"`)):
			s.start = b.rec.now()
			var ev struct {
				Session int64 `json:"session"`
			}
			if err := json.Unmarshal(line, &ev); err != nil {
				s.err = err
			}
			s.id = ev.Session
		case bytes.HasPrefix(line, []byte(`{"type":"result"`)):
			s.end = b.rec.now()
			s.result = append([]byte(nil), line...)
		default:
			s.err = fmt.Errorf("unexpected event %.120s", line)
		}
	}
	if err := sc.Err(); err != nil && s.err == nil {
		s.err = err
	}
	if s.result == nil && s.err == nil {
		s.err = fmt.Errorf("stream ended without a result event")
	}
	if s.first == 0 {
		s.first = s.end
	}
	if fetchTrace && s.err == nil {
		s.traceBytes, s.err = b.fetchTrace(s.id)
	}
	return s
}

func (b *serveBench) fetchTrace(id int64) (int, error) {
	resp, err := b.client.Get(fmt.Sprintf("%s/api/v1/sessions/%d/trace", b.hs.URL, id))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("trace of session %d: HTTP %d", id, resp.StatusCode)
	}
	return int(n), err
}

// openLoop offers sessions at Poisson-distributed due times (serveRate,
// drawn from the workload seed) for the given seconds.
func (b *serveBench) openLoop(seed int64, seconds float64, fetchTrace bool) []*sessionRec {
	offsets := dueOffsets(seed, serveRate, seconds)
	out := make([]*sessionRec, len(offsets))
	dispatch(offsets, b.workers, b.rec.now, func(i int, due int64) {
		out[i] = b.session(i, due, fetchTrace)
	})
	return out
}

// dueOffsets draws Poisson arrival offsets (ns) at rate per second over
// seconds; the same seed gives the same schedule.
func dueOffsets(seed int64, rate, seconds float64) []int64 {
	rng := rand.New(rand.NewSource(deriveSeed(seed, 1<<21)))
	var offsets []int64
	for t := rng.ExpFloat64() / rate; t < seconds; t += rng.ExpFloat64() / rate {
		offsets = append(offsets, int64(t*1e9))
	}
	return offsets
}

// dispatch runs do(i, due) for each offset in order on at most workers
// goroutines, where due is the clock reading the offset falls on. A worker
// sleeps until a session is due; a session due while every worker is busy
// starts late, and the caller times it from due, so the wait counts.
func dispatch(offsets []int64, workers int, clock func() int64, do func(i int, due int64)) {
	origin := clock()
	next := make(chan int, len(offsets))
	for i := range offsets {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				due := origin + offsets[i]
				if d := due - clock(); d > 0 {
					time.Sleep(time.Duration(d))
				}
				do(i, due)
			}
		}()
	}
	wg.Wait()
}

// closedLoop runs n sessions back to back on the given number of
// connections.
func (b *serveBench) closedLoop(n, offset, workers int) []*sessionRec {
	out := make([]*sessionRec, n)
	dispatch(make([]int64, n), workers, b.rec.now, func(i int, _ int64) {
		out[i] = b.session(offset+i, b.rec.now(), false)
	})
	return out
}

// latencies returns each session's due-to-result time and generator lag
// (due to send), in ms.
func latencies(ss []*sessionRec) (lat, lag []float64) {
	for _, s := range ss {
		lat = append(lat, s.latencyMS())
		lag = append(lag, float64(s.sent-s.due)/1e6)
	}
	return lat, lag
}

// reference is the in-process result of a session's spec: scream.Run for
// ad hoc spec k, RunWith on a clone of preloaded mesh k otherwise.
func (b *serveBench) reference(pre bool, k int) (*scream.FlowResult, time.Duration, error) {
	t0 := time.Now()
	var (
		res *scream.FlowResult
		err error
	)
	if pre {
		res, err = scream.RunWith(context.Background(), b.preSpecs[k].Clone(), scream.RunOptions{Mesh: b.preMeshes[k].Clone()})
	} else {
		res, err = scream.Run(context.Background(), b.adhoc[k])
	}
	return res, time.Since(t0), err
}

// refKey indexes reference results: k for ad hoc spec k, -1-k for
// preloaded scenario k.
func refKey(pre bool, k int) int {
	if pre {
		return -1 - k
	}
	return k
}

// check verifies every session: it ran (no error, no 429), its streamed
// result equals the in-process result of its spec (or want's, when given),
// its epoch-event count equals the result's Epochs, and its packet ledger
// balances. It returns the reference results it computed.
func (b *serveBench) check(rep *report, ss []*sessionRec, want map[int]*scream.FlowResult) map[int]*scream.FlowResult {
	refs := make(map[int]*scream.FlowResult)
	for k, v := range want {
		refs[k] = v
	}
	for _, s := range ss {
		rep.attempted++
		if s.err != nil {
			rep.fail("session %d: %v", s.idx, s.err)
			continue
		}
		pre, k := b.specIndex(s.idx)
		key := refKey(pre, k)
		ref, ok := refs[key]
		if !ok {
			r, _, err := b.reference(pre, k)
			if err != nil {
				rep.fail("session %d: in-process reference: %v", s.idx, err)
				continue
			}
			refs[key], ref = r, r
		}
		var ev struct {
			Result *scream.FlowResult `json:"result"`
		}
		if err := json.Unmarshal(s.result, &ev); err != nil || ev.Result == nil {
			rep.fail("session %d: bad result event: %v", s.idx, err)
			continue
		}
		switch {
		case !reflect.DeepEqual(ev.Result, ref):
			rep.fail("session %d: streamed result differs from the in-process run", s.idx)
		case s.epochs != ev.Result.Epochs:
			rep.fail("session %d: %d epoch events for %d epochs", s.idx, s.epochs, ev.Result.Epochs)
		default:
			checkConservation(rep, fmt.Sprintf("session %d", s.idx), ev.Result)
		}
	}
	return refs
}

// serverCheck compares the server's own session counters with what the
// client saw.
func (b *serveBench) serverCheck(rep *report, sessions int) {
	completed := int(b.counter("scream_serve_sessions_completed_total"))
	rejected := int(b.counter("scream_serve_sessions_rejected_total"))
	if completed+rejected+rep.failed < sessions {
		rep.fail("server counted %d completed + %d rejected sessions, client ran %d", completed, rejected, sessions)
	}
	rep.note("server view (/api/v1/metrics): %d completed, %d rejected, %d failed",
		completed, rejected, int(b.counter("scream_serve_sessions_failed_total")))
}

// counter reads one counter from the server's JSON metrics endpoint.
func (b *serveBench) counter(name string) float64 {
	resp, err := b.client.Get(b.hs.URL + "/api/v1/metrics")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return -1
	}
	return float64(snap.Counters[name])
}

// digest pins the reference results of the preloaded scenarios and the
// first 16 ad hoc specs.
func (b *serveBench) digest(rep *report, seed int64, refs map[int]*scream.FlowResult) {
	dg := newDigester()
	for key := -preloaded; key < 16; key++ {
		r, ok := refs[key]
		if !ok {
			pre, k := key < 0, key
			if pre {
				k = -1 - key
			}
			var err error
			if r, _, err = b.reference(pre, k); err != nil {
				rep.fail("reference %d: %v", key, err)
				return
			}
		}
		if err := dg.add(r); err != nil {
			rep.fail("digest: %v", err)
			return
		}
	}
	checkDigest(rep, "serve-sessions/references", dg.hex(), seed, false)
}

// inProcessMS times, for each session, the in-process run of its spec
// (median of three runs per distinct spec).
func (b *serveBench) inProcessMS(ss []*sessionRec) []float64 {
	cache := make(map[int]float64)
	out := make([]float64, len(ss))
	for i, s := range ss {
		pre, k := b.specIndex(s.idx)
		key := refKey(pre, k)
		ms, ok := cache[key]
		if !ok {
			var reps []float64
			for r := 0; r < 3; r++ {
				_, d, _ := b.reference(pre, k)
				reps = append(reps, float64(d)/1e6)
			}
			ms = median(reps)
			cache[key] = ms
		}
		out[i] = ms
	}
	return out
}
