package experiments

import (
	"fmt"
	"io"

	"fairsched/internal/core"
	"fairsched/internal/fairness"
	"fairsched/internal/job"
	"fairsched/internal/sweep"
)

// Metric comparison (paper §4): the same schedules judged by the three FST
// metrics the paper discusses. The hybrid metric is the paper's
// contribution; CONS-P shares its FSTs across schedules but leaks packing
// performance into the judgment; the Sabin metric is exact about
// later-arrival impact but depends on the scheduler under test (and costs
// one re-simulation per job, so it is optional here).

// MetricRow is one policy's unfairness under each metric.
type MetricRow struct {
	Policy string

	HybridPercentUnfair float64
	HybridAvgMiss       float64

	ConsPPercentUnfair float64
	ConsPAvgMiss       float64

	// Sabin values are NaN-free only when CompareMetrics ran with
	// withSabin=true.
	SabinPercentUnfair float64
	SabinAvgMiss       float64
	SabinComputed      bool
}

// CompareMetrics measures each run's schedule (runs simulated over jobs
// under cfg, e.g. Results.Runs) with the hybrid FST, the CONS-P FST and
// (optionally, expensive) the Sabin no-later-arrivals FST, which
// re-simulates the run's spec once per job. The per-run measurements fan
// out on at most parallel workers (<= 0: one per CPU); rows come back in
// run order. A failing run does not discard the others: its row is
// returned zero-valued (Policy == "") alongside the aggregated error — on
// a non-nil error, skip rows with an empty Policy before rendering.
func CompareMetrics(cfg core.StudyConfig, runs []*core.Run, jobs []*job.Job, withSabin bool, parallel int) ([]MetricRow, error) {
	if cfg.SystemSize <= 0 {
		cfg.SystemSize = 1000
	}
	consP, err := fairness.ConsP(jobs, cfg.SystemSize)
	if err != nil {
		return nil, err
	}
	return sweep.Map(parallel, runs,
		func(r *core.Run) string { return r.Spec.Key },
		func(_ int, run *core.Run) (MetricRow, error) {
			row := MetricRow{Policy: run.Spec.Key}

			hybrid := fairness.Measure(run.Result.Records, run.FST)
			row.HybridPercentUnfair = hybrid.PercentUnfair()
			row.HybridAvgMiss = hybrid.AvgMissTime()

			cp := fairness.Measure(run.Result.Records, consP)
			row.ConsPPercentUnfair = cp.PercentUnfair()
			row.ConsPAvgMiss = cp.AvgMissTime()

			if withSabin {
				sabin, err := fairness.Sabin(core.Starts(cfg, run.Spec), jobs)
				if err != nil {
					return MetricRow{}, err
				}
				sb := fairness.Measure(run.Result.Records, sabin)
				row.SabinPercentUnfair = sb.PercentUnfair()
				row.SabinAvgMiss = sb.AvgMissTime()
				row.SabinComputed = true
			}
			return row, nil
		})
}

// RenderMetricComparison writes the comparison as an aligned table.
func RenderMetricComparison(w io.Writer, rows []MetricRow) {
	fmt.Fprintln(w, "METRIC COMPARISON — the same schedules under the §4 fairness metrics")
	fmt.Fprintf(w, "  %-22s %16s %16s %16s\n", "policy",
		"hybrid (§4.1)", "CONS-P", "Sabin")
	for _, r := range rows {
		sabin := "-"
		if r.SabinComputed {
			sabin = fmt.Sprintf("%5.2f%% %6.0fs", r.SabinPercentUnfair, r.SabinAvgMiss)
		}
		fmt.Fprintf(w, "  %-22s %6.2f%% %6.0fs %6.2f%% %6.0fs %16s\n",
			r.Policy,
			r.HybridPercentUnfair, r.HybridAvgMiss,
			r.ConsPPercentUnfair, r.ConsPAvgMiss,
			sabin)
	}
	fmt.Fprintln(w)
}
