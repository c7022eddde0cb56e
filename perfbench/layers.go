package main

import (
	"fmt"
)

// layerMetric is one per-layer metric of the traced run; its value for a
// pass is computed from that pass's spans and counters by value.
type layerMetric struct {
	name  string
	unit  string
	value func(l *layerTotals) float64
}

// layerTotals aggregates one traced pass. Times are in seconds of
// wall-clock share (see selfTimes).
type layerTotals struct {
	self     map[string]float64 // self time by span name
	calls    map[string]int64   // calls by span name
	counters map[string]int64
	poolBusy float64 // summed length of the runs under sweep spans
}

func (l *layerTotals) selfOfLayer(layer string) float64 {
	var sum float64
	for name, v := range l.self {
		if layerOf(name) == layer {
			sum += v
		}
	}
	return sum
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var layerMetrics = []layerMetric{
	{"sched.self_s", "s", func(l *layerTotals) float64 { return l.selfOfLayer("sched") }},
	{"sched.calls", "count", func(l *layerTotals) float64 { return float64(l.calls["sched.pass"]) }},
	{"sched.starts", "count", func(l *layerTotals) float64 { return float64(l.calls["sim.start"]) }},
	{"sched.starts_per_call", "starts/call", func(l *layerTotals) float64 {
		return ratio(float64(l.calls["sim.start"]), float64(l.calls["sched.pass"]))
	}},
	{"profile.build_s", "s", func(l *layerTotals) float64 { return l.selfOfLayer("profile") }},
	{"profile.calls", "count", func(l *layerTotals) float64 { return float64(l.calls["profile.availability"]) }},
	{"sim.self_s", "s", func(l *layerTotals) float64 { return l.selfOfLayer("sim") }},
	{"sim.events", "count", func(l *layerTotals) float64 { return float64(l.counters["sim.events"]) }},
	{"sim.ns_per_event", "ns/event", func(l *layerTotals) float64 {
		return ratio(1e9*l.selfOfLayer("sim"), float64(l.counters["sim.events"]))
	}},
	{"sim.preempts", "count", func(l *layerTotals) float64 { return float64(l.calls["sim.preempt"]) }},
	{"sim.preempt_s", "s", func(l *layerTotals) float64 { return l.self["sim.preempt"] }},
	{"fairness.fst_s", "s", func(l *layerTotals) float64 { return l.self["fairness.fst"] }},
	{"fairness.slo_s", "s", func(l *layerTotals) float64 { return l.self["fairness.slo"] }},
	{"metrics.collector_s", "s", func(l *layerTotals) float64 { return l.self["metrics.collector"] }},
	{"metrics.summarize_s", "s", func(l *layerTotals) float64 { return l.self["metrics.summarize"] }},
	{"scenario.load_s", "s", func(l *layerTotals) float64 { return l.self["scenario.load"] }},
	{"scenario.apply_s", "s", func(l *layerTotals) float64 { return l.self["scenario.apply"] }},
	{"core.execute_s", "s", func(l *layerTotals) float64 { return l.selfOfLayer("core") }},
	{"sweep.wait_s", "s", func(l *layerTotals) float64 {
		return float64(l.counters["sweep.capacity_ns"])/1e9 - l.poolBusy
	}},
	{"sweep.busy_ratio", "ratio", func(l *layerTotals) float64 {
		return ratio(l.poolBusy, float64(l.counters["sweep.capacity_ns"])/1e9)
	}},
	{"experiments.render_s", "s", func(l *layerTotals) float64 { return l.self["experiments.render"] }},
}

// recordLayers computes one traced pass's per-layer metrics and checks
// that the self times of all spans sum to no more than the pass's wall
// time.
func (b *bench) recordLayers(t *tracer, wall float64) error {
	self, err := selfTimes(t.spans)
	if err != nil {
		return err
	}
	l := &layerTotals{self: map[string]float64{}, calls: map[string]int64{}, counters: t.counters}
	byID := make(map[int]*Span, len(t.spans))
	for i := range t.spans {
		byID[t.spans[i].ID] = &t.spans[i]
	}
	var sum float64
	for i := range t.spans {
		s := &t.spans[i]
		l.self[s.Name] += self[s.ID] / 1e9
		l.calls[s.Name] += s.Calls
		sum += self[s.ID] / 1e9
		if p, ok := byID[s.Parent]; ok && p.Run != s.Run && p.Name == "sweep.map" {
			l.poolBusy += float64(s.Busy) / 1e9
		}
		if self[s.ID] < -1e3 {
			return fmt.Errorf("trace: span %s has negative self time %.0f ns", s.Name, self[s.ID])
		}
	}
	if sum > wall*(1+1e-9) {
		return fmt.Errorf("trace: self times sum to %.6f s, more than the pass's %.6f s", sum, wall)
	}
	for _, m := range layerMetrics {
		b.layers[m.name] = append(b.layers[m.name], m.value(l))
	}
	return nil
}
