package sweep

import (
	"testing"

	"fairsched/internal/core"
	"fairsched/internal/scenario"
	"fairsched/internal/workload"
)

// A window-sliced cell must shift the fairshare epoch by its origin shift:
// slicing 12h off a midnight-started trace moves the first decay boundary
// to 12h into the slice, not 24h.
func TestCampaignWindowShiftsEpoch(t *testing.T) {
	jobs, err := workload.Generate(workload.Config{Seed: 3, Scale: 0.01, SystemSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	src := scenario.Source{
		Name: "origin",
		Load: func(int64) (*scenario.Workload, error) {
			return &scenario.Workload{Jobs: jobs, SystemSize: 100, UnixStartTime: 5 * 86400}, nil
		},
	}
	c := Campaign{Study: core.StudyConfig{SystemSize: 100}}
	_, study, err := c.loadCell(src, scenario.Baseline().With(scenario.Window{Start: 12 * 3600}), 0)
	if err != nil {
		t.Fatal(err)
	}
	// UnixStartTime 5d is boundary-aligned; a 12h window start means the
	// slice origin sits mid-interval: epoch -(12h % 24h) = -43200.
	if study.FairshareEpoch != -43200 {
		t.Fatalf("epoch = %d, want -43200", study.FairshareEpoch)
	}
}
