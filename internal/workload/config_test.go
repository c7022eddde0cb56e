package workload

import (
	"math"
	"testing"

	"fairsched/internal/job"
)

func TestGenerateCustomHorizon(t *testing.T) {
	jobs, err := Generate(Config{Seed: 11, Scale: 0.05, Weeks: 10})
	if err != nil {
		t.Fatal(err)
	}
	horizon := int64(10 * 7 * 24 * 3600)
	for _, j := range jobs {
		if j.Submit >= horizon {
			t.Fatalf("submit %d beyond the 10-week horizon", j.Submit)
		}
	}
}

func TestGenerateCustomUserPopulation(t *testing.T) {
	jobs, err := Generate(Config{Seed: 11, Scale: 0.05, Users: 8, Groups: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.User < 1 || j.User > 8 {
			t.Fatalf("user %d outside the 8-user population", j.User)
		}
		if j.Group < 1 || j.Group > 2 {
			t.Fatalf("group %d outside the 2-group population", j.Group)
		}
	}
}

func TestGenerateTinySystemStillValid(t *testing.T) {
	jobs, err := Generate(Config{Seed: 11, Scale: 0.02, SystemSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := job.ValidateAll(jobs, 16); err != nil {
		t.Fatal(err)
	}
	// All widths collapse into the categories that fit 16 nodes.
	for _, j := range jobs {
		if j.Nodes > 16 {
			t.Fatalf("width %d on a 16-node machine", j.Nodes)
		}
	}
}

func TestGenerateEstimatesComeFromMenuOrUnderestimate(t *testing.T) {
	jobs, err := Generate(Config{Seed: 13, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	menu := map[int64]bool{}
	for _, m := range estimateMenu {
		menu[m] = true
	}
	for _, j := range jobs {
		if j.Estimate >= j.Runtime && !menu[j.Estimate] {
			t.Fatalf("overestimate %d not on the menu", j.Estimate)
		}
		if j.Estimate < j.Runtime && j.Estimate < estimateMenu[0] {
			t.Fatalf("underestimate %d below the menu floor", j.Estimate)
		}
	}
}

func TestGenerateRuntimesStayInCells(t *testing.T) {
	jobs, err := Generate(Config{Seed: 17, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.Runtime < 1 || j.Runtime > maxRuntimeCap {
			t.Fatalf("runtime %d outside the global bounds", j.Runtime)
		}
	}
}

func TestScaledCountRounding(t *testing.T) {
	cases := []struct {
		count int
		scale float64
		want  int
	}{
		{10, 1.0, 10}, {10, 0.5, 5}, {10, 0.04, 0}, {10, 0.06, 1},
		{0, 5.0, 0}, {3, 2.0, 6},
	}
	for _, tc := range cases {
		if got := scaledCount(tc.count, tc.scale); got != tc.want {
			t.Errorf("scaledCount(%d, %v) = %d, want %d", tc.count, tc.scale, got, tc.want)
		}
	}
}

func TestSampleLogUniformBounds(t *testing.T) {
	jobs, err := Generate(Config{Seed: 19, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		w, l := j.Cell()
		lo, hi := job.LengthBounds(l)
		if hi == 0 {
			hi = maxRuntimeCap + 1
		}
		if j.Runtime < lo || j.Runtime >= hi {
			t.Fatalf("runtime %d escaped length cell %d (width cell %d)", j.Runtime, l, w)
		}
	}
}

// Validate accepts zero values (the defaults) and refuses every negative
// numeric field the generator would otherwise silently default.
func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config: %v", err)
	}
	if err := (Config{Scale: 0.5, BurstGamma: 1, SystemSize: 100, UnderestimateProb: -1}).Validate(); err != nil {
		t.Fatalf("valid config: %v", err)
	}
	for name, c := range map[string]Config{
		"scale":       {Scale: -1},
		"scale NaN":   {Scale: math.NaN()},
		"burst gamma": {BurstGamma: -0.3},
		"system size": {SystemSize: -5},
		"weeks":       {Weeks: -1},
		"users":       {Users: -2},
		"groups":      {Groups: -3},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: negative value accepted", name)
		}
	}
}
