package sweep_test

import (
	"bytes"
	"errors"
	"testing"

	"fairsched/internal/core"
	"fairsched/internal/experiments"
	"fairsched/internal/scenario"
	"fairsched/internal/sweep"
	"fairsched/internal/workload"
)

func testCampaign(parallel int) sweep.Campaign {
	return sweep.Campaign{
		Sources: []scenario.Source{
			scenario.Synthetic(workload.Config{Scale: 0.02, SystemSize: 100}),
		},
		Scenarios: []scenario.Scenario{
			scenario.Baseline(),
			mustScenario("load=1.3"),
			mustScenario("window=0..4w"),
			mustScenario("perturb=3"),
		},
		Seeds:    []int64{42, 43},
		Specs:    mustSpecs("fcfs", "easy"),
		Study:    core.StudyConfig{SystemSize: 100},
		Parallel: parallel,
	}
}

func mustSpecs(keys ...string) []core.Spec {
	out := make([]core.Spec, 0, len(keys))
	for _, k := range keys {
		s, err := core.SpecByKey(k)
		if err != nil {
			panic(err)
		}
		out = append(out, s)
	}
	return out
}

func mustScenario(spec string) scenario.Scenario {
	s, err := scenario.Parse(spec)
	if err != nil {
		panic(err)
	}
	return s
}

// The whole point of the campaign engine: the rendered report is
// byte-identical at every parallelism.
func TestCampaignDeterministicAcrossParallelism(t *testing.T) {
	var serial, parallel bytes.Buffer
	cells, err := testCampaign(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	experiments.RenderCampaign(&serial, cells)
	cells, err = testCampaign(8).Run()
	if err != nil {
		t.Fatal(err)
	}
	experiments.RenderCampaign(&parallel, cells)
	if serial.String() != parallel.String() {
		t.Error("campaign report differs between -parallel 1 and 8")
	}
	if serial.Len() == 0 {
		t.Fatal("empty campaign report")
	}
}

// Policy-parallel mode must render the byte-identical report: same cells,
// same summaries, at every worker count.
func TestCampaignPolicyParallelDeterministic(t *testing.T) {
	var want bytes.Buffer
	cells, err := testCampaign(1).Run()
	if err != nil {
		t.Fatal(err)
	}
	experiments.RenderCampaign(&want, cells)
	for _, parallel := range []int{1, 8} {
		c := testCampaign(parallel)
		c.PolicyParallel = true
		cells, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		experiments.RenderCampaign(&got, cells)
		if got.String() != want.String() {
			t.Errorf("policy-parallel report at -parallel %d differs from cell-unit report", parallel)
		}
	}
}

// A failing cell in policy-parallel mode leaves a nil summary slot (every
// policy task of the cell reports the load failure) without disturbing the
// surviving cells.
func TestCampaignPolicyParallelFailureIsolation(t *testing.T) {
	c := testCampaign(4)
	c.PolicyParallel = true
	c.Scenarios = append(c.Scenarios, scenario.Scenario{
		Name:       "broken",
		Transforms: []scenario.Transform{scenario.UserFilter{}},
	})
	cells, err := c.Run()
	var errs *sweep.Errors
	if !errors.As(err, &errs) {
		t.Fatalf("want *sweep.Errors, got %v", err)
	}
	if len(cells) != 5*2 {
		t.Fatalf("got %d cells, want 10", len(cells))
	}
	for i, cell := range cells {
		broken := i >= 8 // broken scenario is last: 2 seeds at the tail
		if broken && cell != nil {
			t.Errorf("cell %d should have failed", i)
		}
		if !broken && cell == nil {
			t.Errorf("cell %d should have survived", i)
		}
	}
}

func TestCampaignMatrixShapeAndOrder(t *testing.T) {
	c := testCampaign(4)
	cells, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1*4*2 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	// Matrix order: scenarios outer, seeds inner.
	want := 0
	for _, scen := range c.Scenarios {
		for _, seed := range c.Seeds {
			cell := cells[want]
			if cell.Scenario != scen.Name || cell.Seed != seed {
				t.Fatalf("cell %d = %s/%d, want %s/%d", want, cell.Scenario, cell.Seed, scen.Name, seed)
			}
			if cell.Jobs == 0 {
				t.Fatalf("cell %d ran over an empty workload", want)
			}
			if len(cell.Summaries) != 2 || cell.Policies[0] != "fcfs" {
				t.Fatalf("cell %d policies wrong: %v", want, cell.Policies)
			}
			want++
		}
	}
	// The seed axis must actually vary the workload (synthetic source
	// regenerates per seed).
	if cells[0].Jobs == cells[1].Jobs &&
		cells[0].Summaries[0].AvgWait == cells[1].Summaries[0].AvgWait {
		t.Error("seeds 42 and 43 produced identical cells")
	}
}

// A failing cell in cell mode leaves a nil summary slot and lands in the
// aggregated errors, while every other cell still runs.
func TestCampaignCellFailureIsolation(t *testing.T) {
	c := testCampaign(4)
	// A scenario whose transform always fails: user filter selecting nobody.
	c.Scenarios = append(c.Scenarios, scenario.Scenario{
		Name:       "broken",
		Transforms: []scenario.Transform{scenario.UserFilter{}},
	})
	cells, err := c.Run()
	var errs *sweep.Errors
	if !errors.As(err, &errs) {
		t.Fatalf("want *sweep.Errors, got %v", err)
	}
	if len(errs.Runs) != 2 {
		t.Fatalf("want 2 failed cells (broken × 2 seeds), got %v", errs)
	}
	if len(cells) != 5*2 {
		t.Fatalf("got %d cells, want 10", len(cells))
	}
	for i, cell := range cells {
		broken := i >= 8 // broken scenario is last: 2 seeds at the tail
		if broken && cell != nil {
			t.Errorf("cell %d should have failed", i)
		}
		if !broken && (cell == nil || len(cell.Summaries) != 2 || cell.Summaries[0] == nil) {
			t.Errorf("cell %d should have survived with 2 summaries: %+v", i, cell)
		}
	}
}

// Campaign defaults: empty scenario/seed/spec lists fall back to baseline,
// seed 0 and the full nine-policy set.
func TestCampaignDefaults(t *testing.T) {
	c := sweep.Campaign{
		Sources: []scenario.Source{
			scenario.Synthetic(workload.Config{Scale: 0.01, SystemSize: 100}),
		},
		Study:    core.StudyConfig{SystemSize: 100},
		Parallel: 1,
	}
	cells, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("got %d cells, want 1", len(cells))
	}
	if cells[0].Scenario != "baseline" || cells[0].Seed != 0 {
		t.Fatalf("defaults wrong: %+v", cells[0])
	}
	if len(cells[0].Summaries) != len(core.AllSpecs()) {
		t.Fatalf("got %d policies, want all %d", len(cells[0].Summaries), len(core.AllSpecs()))
	}
}
