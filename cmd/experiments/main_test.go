package main

import (
	"testing"

	"fairsched/internal/core"
	"fairsched/internal/fairshare"
	"fairsched/internal/workload"
)

// TestPaperFindingsSeedVerdicts pins the -seeds report's per-claim pass
// counts for seeds 1 and 2 at scale 0.02 on 100 nodes. The counts are the
// ones the earlier seed-sweep driver (a separate (seed × policy) matrix
// over the same synthetic traces) tallied, so moving -seeds onto the
// hypothesis harness changed no verdict.
func TestPaperFindingsSeedVerdicts(t *testing.T) {
	want := map[string]int{
		"fig8-fair-reduces-unfair":        0,
		"fig8-72h-entry-reduces-unfair":   0,
		"fig8-all-three-lowest":           1,
		"fig8-72max-reduces-unfair-load":  0,
		"fig9-72max-reduces-miss":         0,
		"fig10-wide-misses-dominate":      0,
		"fig11-72max-improves-tat":        1,
		"fig12-72max-helps-wide-tat":      0,
		"fig13-72max-improves-loc":        1,
		"fig14-consdyn-fewest-unfair":     1,
		"fig15-cons-nomax-high-miss":      0,
		"fig15-consdyn-outlier":           1,
		"fig15-cons72max-improves-miss":   1,
		"fig16-cons-helps-wide":           0,
		"fig17-cons72max-competitive-tat": 1,
		"fig19-72max-lowers-loc":          1,
	}
	study := core.StudyConfig{SystemSize: 100, Fairshare: fairshare.Config{DecayFactor: 0.5}}
	eval, err := paperFindings(workload.Config{Scale: 0.02, SystemSize: 100}, study, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(eval.Outcomes) != len(want) {
		t.Fatalf("%d claims evaluated, want %d", len(eval.Outcomes), len(want))
	}
	for i := range eval.Outcomes {
		o := &eval.Outcomes[i]
		if len(o.Results) != 2 {
			t.Errorf("%s: %d seeds evaluated, want 2", o.Spec.ID, len(o.Results))
		}
		if n, ok := want[o.Spec.ID]; !ok || o.Passed() != n {
			t.Errorf("%s: passed %d/2 seeds, want %d", o.Spec.ID, o.Passed(), n)
		}
	}
}
