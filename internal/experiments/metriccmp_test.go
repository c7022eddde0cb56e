package experiments

import (
	"bytes"
	"strings"
	"testing"

	"fairsched/internal/core"
	"fairsched/internal/job"
	"fairsched/internal/workload"
)

// runsFor executes the given registry policies over jobs on a 100-node
// machine.
func runsFor(t *testing.T, jobs []*job.Job, keys ...string) (core.StudyConfig, []*core.Run) {
	t.Helper()
	cfg := core.StudyConfig{SystemSize: 100}
	var specs []core.Spec
	for _, key := range keys {
		s, err := core.SpecByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	runs, err := core.ExecuteAll(cfg, specs, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, runs
}

// TestCompareMetricsWithoutSabin measures the supplied runs rather than
// re-simulating them: the hybrid column is the study summary's own
// unfairness for the same run.
func TestCompareMetricsWithoutSabin(t *testing.T) {
	jobs, err := workload.Generate(workload.Config{Seed: 2, Scale: 0.05, SystemSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	cfg, runs := runsFor(t, jobs, "cplant24.nomax.all", "consdyn.nomax")
	rows, err := CompareMetrics(cfg, runs, jobs, false, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		if r.Policy != runs[i].Spec.Key {
			t.Errorf("row %d is %s, want %s (run order)", i, r.Policy, runs[i].Spec.Key)
		}
		if r.SabinComputed {
			t.Errorf("%s: sabin computed without being requested", r.Policy)
		}
		if got, want := r.HybridPercentUnfair, runs[i].Summary.PercentUnfair; got != want {
			t.Errorf("%s: hybrid %% unfair %v, the run's summary says %v", r.Policy, got, want)
		}
		if got, want := r.HybridAvgMiss, runs[i].Summary.AvgMissTime; got != want {
			t.Errorf("%s: hybrid avg miss %v, the run's summary says %v", r.Policy, got, want)
		}
		if r.ConsPAvgMiss < 0 {
			t.Errorf("%s: negative CONS-P miss", r.Policy)
		}
	}
}

func TestCompareMetricsWithSabin(t *testing.T) {
	// Tiny workload: Sabin re-simulates per job.
	jobs, err := workload.Generate(workload.Config{Seed: 2, Scale: 0.01, SystemSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	cfg, runs := runsFor(t, jobs, "easy")
	rows, err := CompareMetrics(cfg, runs, jobs, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rows[0].SabinComputed {
		t.Fatal("sabin not computed")
	}
	// The Sabin FST can never precede a job's start by construction for
	// the last-arriving job; aggregate sanity only here.
	if rows[0].SabinPercentUnfair < 0 || rows[0].SabinPercentUnfair > 100 {
		t.Fatalf("sabin percent out of range: %v", rows[0].SabinPercentUnfair)
	}
}

func TestRenderMetricComparison(t *testing.T) {
	var buf bytes.Buffer
	RenderMetricComparison(&buf, []MetricRow{
		{Policy: "cplant24.nomax.all", HybridPercentUnfair: 7, HybridAvgMiss: 9000,
			ConsPPercentUnfair: 40, ConsPAvgMiss: 50000},
		{Policy: "easy", SabinComputed: true, SabinPercentUnfair: 3, SabinAvgMiss: 100},
	})
	out := buf.String()
	if !strings.Contains(out, "METRIC COMPARISON") || !strings.Contains(out, "cplant24.nomax.all") {
		t.Fatalf("render incomplete: %q", out)
	}
	if !strings.Contains(out, "-") {
		t.Fatal("missing Sabin placeholder")
	}
}
