package hypothesis_test

import (
	"errors"
	"strings"
	"testing"

	"fairsched/internal/hypothesis"
	"fairsched/internal/scenario"
	"fairsched/internal/sweep"
)

// TestRunCampaignKeepsSurvivingSeeds checks one failing cell does not void
// the evaluation: the other seeds keep their verdicts, the failed seed
// reports the miss, and the campaign's error comes back alongside.
func TestRunCampaignKeepsSurvivingSeeds(t *testing.T) {
	s, err := hypothesis.Parse("claim a: fcfs < 200 on avg_wait seeds 1..3")
	if err != nil {
		t.Fatal(err)
	}
	good := scenario.Jobs("flaky", goldenJobs(), 4)
	flaky := scenario.Source{Name: "flaky", Load: func(seed int64) (*scenario.Workload, error) {
		if seed == 2 {
			return nil, errors.New("trace unreadable")
		}
		return good.Load(seed)
	}}
	eval, err := hypothesis.RunCampaign([]hypothesis.Spec{s}, hypothesis.CampaignOptions{Source: flaky, Parallel: 2})
	var failed *sweep.Errors
	if !errors.As(err, &failed) || len(failed.Runs) != 1 {
		t.Fatalf("want one failed cell in a *sweep.Errors, got %v", err)
	}
	if eval == nil || len(eval.Outcomes) != 1 {
		t.Fatalf("evaluation discarded: %+v", eval)
	}
	results := eval.Outcomes[0].Results
	if len(results) != 3 {
		t.Fatalf("%d seed results, want 3", len(results))
	}
	for _, r := range results {
		switch r.Seed {
		case 2:
			if r.Err == nil || !strings.Contains(r.Err.Error(), "did not complete") {
				t.Errorf("seed 2: want a did-not-complete error, got pass=%v err=%v", r.Pass, r.Err)
			}
		default:
			if r.Err != nil || !r.Pass {
				t.Errorf("seed %d: want a pass, got pass=%v err=%v", r.Seed, r.Pass, r.Err)
			}
		}
	}
}
