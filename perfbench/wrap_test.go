package main

import (
	"bytes"
	"reflect"
	"testing"

	"fairsched/internal/core"
	"fairsched/internal/experiments"
	"fairsched/internal/job"
	"fairsched/internal/scenario"
	"fairsched/internal/sweep"
	"fairsched/internal/topology"
	"fairsched/internal/workload"
)

// smallContended is a small generated trace under load, tagged with SLOs,
// so that srpt preempts and the SLO observer judges jobs.
func smallContended(t *testing.T) ([]*job.Job, core.StudyConfig) {
	t.Helper()
	base, err := workload.Generate(workload.Config{Seed: 7, Scale: 0.03, SystemSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	scen, err := scenario.Parse("load=1.5+slo=p50:2h,default:24h")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := scen.Apply(base, 7)
	if err != nil {
		t.Fatal(err)
	}
	asg, err := scen.SLOAssignment(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return jobs, core.StudyConfig{SystemSize: 128, SLO: asg}
}

// The traced replica of core.Execute's flat path gives the same summary,
// SLO report and fair start times as core.Execute.
func TestTracedExecuteMatchesExecute(t *testing.T) {
	jobs, cfg := smallContended(t)
	for _, key := range []string{"easy", "cons.nomax", "srpt"} {
		spec, err := core.SpecByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Execute(cfg, spec, jobs)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		r := tr.newRun(-1)
		got, err := tracedExecute(r, cfg, spec, jobs)
		r.finish()
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if want.SLO == nil {
			t.Fatalf("%s: no SLO report; the input tags no users", key)
		}
		if !reflect.DeepEqual(got.Summary, want.Summary) {
			t.Errorf("%s: traced summary differs:\n got %+v\nwant %+v", key, got.Summary, want.Summary)
		}
		if !reflect.DeepEqual(got.SLO, want.SLO) {
			t.Errorf("%s: traced SLO report differs", key)
		}
		if !reflect.DeepEqual(got.FST, want.FST) {
			t.Errorf("%s: traced fair start times differ", key)
		}
		calls := map[string]int64{}
		for _, s := range tr.spans {
			calls[s.Name] += s.Calls
		}
		if calls["sched.pass"] == 0 || calls["sim.start"] == 0 || calls["fairness.slo"] == 0 {
			t.Errorf("%s: layers missing from the trace: %v", key, calls)
		}
		if key == "srpt" && calls["sim.preempt"] == 0 {
			t.Errorf("srpt never preempted; the input does not exercise the preemption path")
		}
	}
}

// The traced paper study renders the same report as the program's.
func TestTracedRunOnMatchesReport(t *testing.T) {
	jobs, err := workload.Generate(workload.Config{Seed: 3, Scale: 0.02, SystemSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	study := core.StudyConfig{SystemSize: 100}
	want, err := experiments.RunOnParallel(study, jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	rt := newTracer().newRun(-1)
	rt.enter("bench.pass")
	got, err := tracedRunOn(rt, study, jobs, 1)
	rt.exit()
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	experiments.WriteReport(&a, want, 0)
	experiments.WriteReport(&b, got, 0)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("traced report differs (%s)", firstDiff(a.Bytes(), b.Bytes()))
	}
}

// The traced campaign, on two workers and a partitioned machine, renders
// the same report as sweep.Campaign.Run.
func TestTracedCampaignMatchesRun(t *testing.T) {
	jobs, _ := smallContended(t)
	topo, err := topology.Parse("part=a:128,part=b:128,queue=org/x:part=a:guar=2,queue=org/y:part=b:order=fairshare+bf=easy")
	if err != nil {
		t.Fatal(err)
	}
	parse := func(specs ...string) []scenario.Scenario {
		var out []scenario.Scenario
		for _, s := range specs {
			sc, err := scenario.Parse(s)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, sc)
		}
		return out
	}
	specs, err := parseSpecs([]string{"easy", "cplant24.nomax.all"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		study core.StudyConfig
		scens []scenario.Scenario
	}{
		{core.StudyConfig{SystemSize: 128}, parse("baseline", "slo=p50:30m,default:4h")},
		{core.StudyConfig{SystemSize: 256, Topology: topo}, parse("queue=p50:org/x,default:org/y", "queue=p50:org/x,default:org/y+slo=p50:30m,default:4h")},
	} {
		study := tc.study
		c := sweep.Campaign{
			Sources:   []scenario.Source{scenario.Jobs("a", jobs, 128), scenario.Jobs("b", jobs[:len(jobs)/2], 128)},
			Scenarios: tc.scens,
			Seeds:     []int64{5},
			Specs:     specs,
			Study:     study,
			Parallel:  2,
		}
		want, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		rt := tr.newRun(-1)
		rt.enter("bench.pass")
		got, err := tracedCampaign(rt, c)
		rt.exit()
		rt.finish()
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		experiments.RenderCampaign(&a, want)
		experiments.RenderCampaign(&b, got)
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("topology %v: traced report differs (%s)", study.Topology != nil, firstDiff(a.Bytes(), b.Bytes()))
		}
		if _, err := selfTimes(tr.spans); err != nil {
			t.Error(err)
		}
	}
}
