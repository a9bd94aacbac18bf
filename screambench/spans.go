package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed interval recorded around a call into a layer. Times are
// nanoseconds since the recorder's origin. An aggregate span folds many
// short calls (Count of them) into one child: its duration End-Start is
// their summed time, and its placement inside the parent is nominal.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Agg    bool   `json:"agg,omitempty"`
	Count  int    `json:"count,omitempty"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// Recorder keeps spans in memory; they are written out only when the run
// ends. It is not safe for concurrent use.
type Recorder struct {
	origin time.Time
	spans  []Span
}

func newRecorder() *Recorder { return &Recorder{origin: time.Now()} }

// now is the recorder clock (monotonic nanoseconds since origin).
func (r *Recorder) now() int64 { return int64(time.Since(r.origin)) }

// Begin opens a span and returns its id.
func (r *Recorder) Begin(name string, parent int) int {
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: r.now(), End: -1})
	return len(r.spans)
}

// End closes span id.
func (r *Recorder) End(id int) { r.spans[id-1].End = r.now() }

// Add records a finished span (an aggregate, or one timed elsewhere) and
// returns its id.
func (r *Recorder) Add(s Span) int {
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	return s.ID
}

// Rename renames span id (the run's trailing epoch, which never saw an
// OnEpoch, becomes "tail").
func (r *Recorder) Rename(id int, name string) { r.spans[id-1].Name = name }

// Spans returns the recorded spans.
func (r *Recorder) Spans() []Span { return r.spans }

// WriteJSONL writes the spans, one JSON object per line.
func (r *Recorder) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// it its children cover. Interval children count by the union of their
// intervals clipped to the parent, so overlapping children are not counted
// twice; aggregate children count by their summed duration. The result is
// never negative.
func selfTimes(spans []Span) map[int]int64 {
	byID := make(map[int]Span, len(spans))
	kids := make(map[int][]Span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, p := range spans {
		covered := int64(0)
		var iv [][2]int64
		for _, c := range kids[p.ID] {
			if c.Agg {
				covered += c.dur()
				continue
			}
			lo, hi := max(c.Start, p.Start), min(c.End, p.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		covered += unionLength(iv)
		self[p.ID] = max(p.dur()-covered, 0)
	}
	return self
}

// unionLength is the total length covered by a set of half-open intervals.
func unionLength(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total := int64(0)
	curLo, curHi := int64(0), int64(-1)
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// byName sums durations and self times per span name, and collects each
// name's durations (ms) for percentiles.
type nameStats struct {
	total, self int64
	durMS       []float64
	count       int
}

func summarize(spans []Span) map[string]*nameStats {
	self := selfTimes(spans)
	out := make(map[string]*nameStats)
	for _, s := range spans {
		ns := out[s.Name]
		if ns == nil {
			ns = &nameStats{}
			out[s.Name] = ns
		}
		ns.total += s.dur()
		ns.self += self[s.ID]
		ns.durMS = append(ns.durMS, float64(s.dur())/1e6)
		if s.Agg {
			ns.count += s.Count
		} else {
			ns.count++
		}
	}
	return out
}
