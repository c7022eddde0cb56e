package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one traced interval at a layer boundary. Spans of one run (one
// simulation cell, or the pass itself) share a Run id, and Parent links a
// span to the span that caused it (-1 for the pass root). A run executes on
// one goroutine, so repeated calls of the same name under the same parent
// are folded into one span: Calls counts them, Busy sums their durations,
// and Start/End bound the first and last call.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls"`
	Busy   int64  `json:"busy_ns"`
}

// layerOf is the module a span name belongs to: the name up to its first
// dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// tracer collects the spans and counters of one traced pass. Runs record
// into their own runTrace without locking and hand their spans over when
// they finish.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	nextID   int
	nextRun  int
	spans    []Span
	counters map[string]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counters: map[string]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newRun starts a run whose root spans are children of parent (a span id
// of another run, or -1).
func (t *tracer) newRun(parent int) *runTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextRun
	t.nextRun++
	return &runTrace{t: t, run: id, parent: parent, fold: map[foldKey]int{}, counters: map[string]int64{}}
}

func (t *tracer) allocID() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextID
	t.nextID++
	return id
}

type foldKey struct {
	parent int
	name   string
}

type frame struct {
	idx   int
	start int64
}

// runTrace records the spans of one run. It is confined to the goroutine
// executing the run.
type runTrace struct {
	t        *tracer
	run      int
	parent   int
	spans    []Span
	stack    []frame
	fold     map[foldKey]int // (parent span id, name) -> index in spans
	counters map[string]int64
}

// enter opens a span named name under the innermost open span.
func (r *runTrace) enter(name string) {
	parent := r.parent
	if n := len(r.stack); n > 0 {
		parent = r.spans[r.stack[n-1].idx].ID
	}
	key := foldKey{parent, name}
	idx, ok := r.fold[key]
	start := r.t.now()
	if !ok {
		idx = len(r.spans)
		r.spans = append(r.spans, Span{ID: r.t.allocID(), Parent: parent, Run: r.run, Name: name, Start: start})
		r.fold[key] = idx
	}
	r.stack = append(r.stack, frame{idx, start})
}

// exit closes the innermost open span.
func (r *runTrace) exit() {
	end := r.t.now()
	f := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	s := &r.spans[f.idx]
	s.Calls++
	s.Busy += end - f.start
	s.End = end
}

// current is the id of the innermost open span (the parent of runs started
// from here).
func (r *runTrace) current() int {
	return r.spans[r.stack[len(r.stack)-1].idx].ID
}

func (r *runTrace) count(name string, n int64) { r.counters[name] += n }

// finish hands the run's spans and counters to the tracer. A run that
// panicked may leave spans open; they keep the calls that completed.
func (r *runTrace) finish() {
	r.t.mu.Lock()
	defer r.t.mu.Unlock()
	r.t.spans = append(r.t.spans, r.spans...)
	for k, v := range r.counters {
		r.t.counters[k] += v
	}
}

// writeJSONL writes one span per line: each traced pass's spans in id
// order, tagged with the pass's index.
func writeJSONL(path string, passes [][]Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for p, spans := range passes {
		sorted := append([]Span(nil), spans...)
		sort.Slice(sorted, func(i, k int) bool { return sorted[i].ID < sorted[k].ID })
		for _, s := range sorted {
			line := struct {
				Pass int `json:"pass"`
				Span
			}{p, s}
			if err := enc.Encode(&line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in ns, keyed by span id, charged
// in wall-clock share. Every run has one root span: the pass root (parent
// -1), or a span whose parent belongs to another run. A span's self time is
// its busy time minus the time its children cover. Children in the same run
// ran inside the parent's calls one at a time, so they cover their busy
// time. Roots of other runs (sweep cells under the sweep span) may run
// concurrently, so together they cover the union of their intervals, and
// every span of such a run is charged only its share of the wall clock: an
// instant that k runs share counts 1/k to each. Charged that way, the self
// times of all spans sum to the busy time of the pass root.
func selfTimes(spans []Span) (map[int]float64, error) {
	byID := make(map[int]*Span, len(spans))
	for i := range spans {
		if _, dup := byID[spans[i].ID]; dup {
			return nil, fmt.Errorf("trace: duplicate span id %d", spans[i].ID)
		}
		byID[spans[i].ID] = &spans[i]
	}
	self := make(map[int]float64, len(spans))
	root := map[int]*Span{}    // run -> its root span
	cross := map[int][]*Span{} // span id -> roots of other runs under it
	for i := range spans {
		s := &spans[i]
		self[s.ID] += float64(s.Busy)
		p, ok := byID[s.Parent]
		switch {
		case s.Parent >= 0 && !ok:
			return nil, fmt.Errorf("trace: span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		case ok && p.Run == s.Run:
			self[p.ID] -= float64(s.Busy)
			continue
		case ok:
			cross[p.ID] = append(cross[p.ID], s)
		}
		if r := root[s.Run]; r != nil {
			return nil, fmt.Errorf("trace: run %d has two roots, %s and %s", s.Run, r.Name, s.Name)
		}
		root[s.Run] = s
	}
	share := map[int]float64{} // root span id -> its wall-clock share in ns
	for pid, kids := range cross {
		union, shares := concurrencyShares(kids)
		self[pid] -= union
		for i, k := range kids {
			share[k.ID] = shares[i]
		}
	}
	weight := map[int]float64{} // run -> charge per ns of that run
	var runWeight func(run int) float64
	runWeight = func(run int) float64 {
		if w, ok := weight[run]; ok {
			return w
		}
		w, r := 1.0, root[run]
		if p, ok := byID[r.Parent]; ok && r.Busy > 0 {
			w = runWeight(p.Run) * share[r.ID] / float64(r.Busy)
		}
		weight[run] = w
		return w
	}
	for id := range self {
		self[id] *= runWeight(byID[id].Run)
	}
	return self, nil
}

// concurrencyShares returns the length of the union of the spans'
// [Start, End) intervals and, per span, the part of its interval charged to
// it when every instant is split evenly among the spans covering it.
func concurrencyShares(kids []*Span) (union float64, shares []float64) {
	type edge struct {
		at    int64
		delta int
	}
	edges := make([]edge, 0, 2*len(kids))
	for _, k := range kids {
		edges = append(edges, edge{k.Start, +1}, edge{k.End, -1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	// cum[i] is the integral of 1/k(t), k(t) the number of spans covering
	// t, from the first edge to times[i].
	times := make([]int64, 0, len(edges))
	cum := make([]float64, 0, len(edges))
	active := 0
	var acc float64
	var last int64
	for i, e := range edges {
		if i > 0 && active > 0 {
			acc += float64(e.at-last) / float64(active)
			union += float64(e.at - last)
		}
		last = e.at
		active += e.delta
		times = append(times, e.at)
		cum = append(cum, acc)
	}
	at := func(t int64) float64 {
		// The cumulative share is constant at an edge time; take the last
		// value recorded for it.
		i := sort.Search(len(times), func(i int) bool { return times[i] > t })
		return cum[i-1]
	}
	shares = make([]float64, len(kids))
	for i, k := range kids {
		shares[i] = at(k.End) - at(k.Start)
	}
	return union, shares
}
