package main

import (
	"math"
	"testing"
)

func checkSelf(t *testing.T, spans []Span, want map[int]float64) {
	t.Helper()
	self, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for id, w := range want {
		if got := self[id]; math.Abs(got-w) > 1e-9 {
			t.Errorf("span %d: self %v, want %v", id, got, w)
		}
		sum += self[id]
	}
	if len(self) != len(want) {
		t.Errorf("%d self times, want %d", len(self), len(want))
	}
	if root := spans[0].Busy; math.Abs(sum-float64(root)) > 1e-9 {
		t.Errorf("self times sum to %v, want the root's %d", sum, root)
	}
}

// One run: nested children cover their busy time, folded calls included.
func TestSelfTimesNested(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Run: 0, Name: "bench.pass", Start: 0, End: 100, Calls: 1, Busy: 100},
		{ID: 1, Parent: 0, Run: 0, Name: "sched.pass", Start: 5, End: 80, Calls: 3, Busy: 60},
		{ID: 2, Parent: 1, Run: 0, Name: "profile.availability", Start: 6, End: 70, Calls: 7, Busy: 20},
		{ID: 3, Parent: 2, Run: 0, Name: "sim.start", Start: 7, End: 9, Calls: 1, Busy: 2},
		{ID: 4, Parent: 0, Run: 0, Name: "experiments.render", Start: 85, End: 95, Calls: 1, Busy: 10},
	}
	checkSelf(t, spans, map[int]float64{0: 30, 1: 40, 2: 18, 3: 2, 4: 10})
}

// Two runs under the sweep span overlap on [30, 60): each is charged half
// of that stretch, and the sweep span is charged nothing of the union.
func TestSelfTimesConcurrentRuns(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Run: 0, Name: "bench.pass", Start: 0, End: 100, Calls: 1, Busy: 100},
		{ID: 1, Parent: 0, Run: 0, Name: "sweep.map", Start: 10, End: 90, Calls: 1, Busy: 80},
		{ID: 2, Parent: 1, Run: 1, Name: "sweep.cell", Start: 10, End: 60, Calls: 1, Busy: 50},
		{ID: 3, Parent: 2, Run: 1, Name: "core.execute", Start: 20, End: 50, Calls: 1, Busy: 30},
		{ID: 4, Parent: 1, Run: 2, Name: "sweep.cell", Start: 30, End: 90, Calls: 1, Busy: 60},
	}
	// Run 1 gets 20 + 30/2 = 35 of its 50 ns (weight 0.7), run 2 gets
	// 30/2 + 30 = 45 of its 60 ns (weight 0.75).
	checkSelf(t, spans, map[int]float64{0: 20, 1: 0, 2: 14, 3: 21, 4: 45})
}

// Back-to-back runs do not overlap: each keeps its full time.
func TestSelfTimesSerialRuns(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Run: 0, Name: "bench.pass", Start: 0, End: 50, Calls: 1, Busy: 50},
		{ID: 1, Parent: 0, Run: 0, Name: "sweep.map", Start: 0, End: 50, Calls: 1, Busy: 50},
		{ID: 2, Parent: 1, Run: 1, Name: "sweep.task", Start: 0, End: 20, Calls: 1, Busy: 20},
		{ID: 3, Parent: 1, Run: 2, Name: "sweep.task", Start: 20, End: 45, Calls: 1, Busy: 25},
	}
	checkSelf(t, spans, map[int]float64{0: 0, 1: 5, 2: 20, 3: 25})
}

func TestSelfTimesRejectsBrokenTrees(t *testing.T) {
	for name, spans := range map[string][]Span{
		"unknown parent": {{ID: 0, Parent: -1}, {ID: 1, Parent: 7}},
		"duplicate id":   {{ID: 0, Parent: -1}, {ID: 0, Parent: 0}},
		"two roots":      {{ID: 0, Parent: -1, Run: 0}, {ID: 1, Parent: -1, Run: 0}},
	} {
		if _, err := selfTimes(spans); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// The recorder folds repeated calls under one parent into one span and
// nests children inside their parent's calls.
func TestRunTraceFolds(t *testing.T) {
	tr := newTracer()
	r := tr.newRun(-1)
	r.enter("bench.pass")
	for i := 0; i < 3; i++ {
		r.enter("sched.pass")
		r.enter("profile.availability")
		r.exit()
		r.exit()
	}
	r.enter("profile.availability") // same name, other parent: its own span
	r.exit()
	r.exit()
	r.finish()
	if len(tr.spans) != 4 {
		t.Fatalf("%d spans, want 4: %+v", len(tr.spans), tr.spans)
	}
	byName := map[string][]Span{}
	for _, s := range tr.spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	sched := byName["sched.pass"][0]
	if sched.Calls != 3 || sched.Parent != byName["bench.pass"][0].ID {
		t.Errorf("sched.pass span %+v", sched)
	}
	for _, p := range byName["profile.availability"] {
		if p.Parent == sched.ID && (p.Calls != 3 || p.Busy > sched.Busy) {
			t.Errorf("nested profile span %+v inside %+v", p, sched)
		}
	}
	if _, err := selfTimes(tr.spans); err != nil {
		t.Fatal(err)
	}
}
