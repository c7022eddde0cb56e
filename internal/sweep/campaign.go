package sweep

import (
	"fmt"
	"sync"

	"fairsched/internal/core"
	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/metrics"
	"fairsched/internal/scenario"
	"fairsched/internal/slo"
)

// Campaign is the full evaluation matrix: (trace × scenario × seed ×
// policy). Each (trace, scenario, seed) triple is one cell; the cell's
// worker streams the trace in (scenario sources load lazily, SWF files via
// the streaming scanner), applies the scenario's transforms under the
// cell's seed, runs every policy, and releases the workload before taking
// the next cell — so peak memory is one loaded workload per worker, not
// the whole matrix, and the raw SWF text/records never materialize (each
// worker holds just its cell's converted job slice).
type Campaign struct {
	// Sources are the workloads (trace files, synthetic generators).
	Sources []scenario.Source
	// Scenarios are the workload variants; zero length means baseline only.
	Scenarios []scenario.Scenario
	// Seeds drive scenario randomness (and synthetic generation); zero
	// length means the single seed 0.
	Seeds []int64
	// Specs are the policies; zero length means core.AllSpecs().
	Specs []core.Spec
	// Study configures every run. SystemSize <= 0 defers to each trace's
	// declared size; FairshareEpoch 0 defers to each trace's Unix start
	// time.
	Study core.StudyConfig
	// Parallel bounds the worker pool (<= 0: one worker per CPU).
	Parallel int
	// PolicyParallel promotes the policy axis into the parallel grid: Run
	// fans out (trace × scenario × seed × policy) tasks instead of whole
	// cells, so a wide-registry sweep over few cells still saturates the
	// pool. A cell's workload is loaded once (by whichever of its policy
	// tasks runs first) and shared read-only, then released when the cell's
	// last policy finishes — peak memory grows to at most one workload
	// share per in-flight cell, bounded by the worker count plus one. The
	// summaries, and any report rendered from them, stay byte-identical to
	// the cell-unit mode at every parallelism.
	PolicyParallel bool
}

// CellSummary is the memory-light record of a finished cell: identity plus
// per-policy summaries, with the workload and per-job records dropped.
type CellSummary struct {
	Source     string
	Scenario   string
	Seed       int64
	SystemSize int
	Jobs       int
	Policies   []string           // spec order
	Summaries  []*metrics.Summary // spec order
	// SLOs are the per-policy SLO attainment reports, spec order; nil when
	// the cell's scenario tags no users (the summaries are per-class, so a
	// cell stays memory-light even over a large user population).
	SLOs []*slo.Summary
}

// cells enumerates the matrix in deterministic input order: sources
// outermost, then scenarios, then seeds.
func (c Campaign) cells() (srcs []scenario.Source, scens []scenario.Scenario, seeds []int64, specs []core.Spec, grid [][3]int) {
	srcs = c.Sources
	scens = c.Scenarios
	if len(scens) == 0 {
		scens = []scenario.Scenario{scenario.Baseline()}
	}
	seeds = c.Seeds
	if len(seeds) == 0 {
		seeds = []int64{0}
	}
	specs = c.Specs
	if len(specs) == 0 {
		specs = core.AllSpecs()
	}
	for si := range srcs {
		for ci := range scens {
			for di := range seeds {
				grid = append(grid, [3]int{si, ci, di})
			}
		}
	}
	return srcs, scens, seeds, specs, grid
}

// Run executes the matrix and returns one CellSummary per cell in matrix
// order (sources, then scenarios, then seeds) regardless of Parallel — the
// summaries, and any report rendered from them, are byte-identical at every
// parallelism and in both task-granularity modes (see PolicyParallel).
// Failed cells leave nil slots alongside the aggregated *Errors, like the
// other sweep entry points.
func (c Campaign) Run() ([]*CellSummary, error) {
	if c.PolicyParallel {
		return c.runPolicyParallel()
	}
	srcs, scens, seeds, specs, grid := c.cells()
	return Map(c.Parallel, grid,
		func(g [3]int) string {
			return fmt.Sprintf("%s × %s × seed %d", srcs[g[0]].Name, scens[g[1]].Name, seeds[g[2]])
		},
		func(_ int, g [3]int) (*CellSummary, error) {
			src, scen, seed := srcs[g[0]], scens[g[1]], seeds[g[2]]
			jobs, study, runs, err := c.runCell(src, scen, seed, specs)
			if err != nil {
				return nil, err
			}
			return cellSummary(src.Name, scen.Name, seed, study.SystemSize, len(jobs), runs), nil
		})
}

// cellSummary keeps what a report reads of a finished cell: its identity
// and the per-policy summaries, spec order. Any nil run (a failed policy)
// fails the whole cell: the summary is nil.
func cellSummary(source, scen string, seed int64, systemSize, jobs int, runs []*core.Run) *CellSummary {
	sum := &CellSummary{
		Source:     source,
		Scenario:   scen,
		Seed:       seed,
		SystemSize: systemSize,
		Jobs:       jobs,
		Policies:   make([]string, len(runs)),
		Summaries:  make([]*metrics.Summary, len(runs)),
	}
	for i, r := range runs {
		if r == nil {
			return nil
		}
		sum.Policies[i] = r.Spec.Key
		sum.Summaries[i] = r.Summary
		if r.SLO != nil {
			if sum.SLOs == nil {
				sum.SLOs = make([]*slo.Summary, len(runs))
			}
			sum.SLOs[i] = r.SLO
		}
	}
	return sum
}

// runPolicyParallel is Run with the policy axis in the parallel grid: one
// task per (cell, policy). Each cell's workload is loaded exactly once (by
// the cell's first task to run, under a sync.Once) and shared read-only by
// its sibling tasks — the simulator never mutates submitted jobs — then
// dropped when the cell's last policy run finishes.
func (c Campaign) runPolicyParallel() ([]*CellSummary, error) {
	srcs, scens, seeds, specs, grid := c.cells()
	type cellState struct {
		once      sync.Once
		mu        sync.Mutex
		jobs      []*job.Job
		jobCount  int
		study     core.StudyConfig
		err       error
		remaining int
	}
	states := make([]*cellState, len(grid))
	for i := range states {
		states[i] = &cellState{remaining: len(specs)}
	}
	type task struct{ cell, spec int }
	tasks := make([]task, 0, len(grid)*len(specs))
	for ci := range grid {
		for pi := range specs {
			tasks = append(tasks, task{cell: ci, spec: pi})
		}
	}
	runs, err := Map(c.Parallel, tasks,
		func(t task) string {
			g := grid[t.cell]
			return fmt.Sprintf("%s × %s × seed %d × %s",
				srcs[g[0]].Name, scens[g[1]].Name, seeds[g[2]], specs[t.spec].Key)
		},
		func(_ int, t task) (*core.Run, error) {
			g, st := grid[t.cell], states[t.cell]
			st.once.Do(func() {
				st.jobs, st.study, st.err = c.loadCell(srcs[g[0]], scens[g[1]], seeds[g[2]])
				st.jobCount = len(st.jobs)
			})
			st.mu.Lock()
			jobs, loadErr := st.jobs, st.err
			st.mu.Unlock()
			var r *core.Run
			var runErr error
			if loadErr != nil {
				runErr = loadErr
			} else {
				r, runErr = core.Execute(st.study, specs[t.spec], jobs)
			}
			st.mu.Lock()
			st.remaining--
			if st.remaining == 0 {
				st.jobs = nil // cell finished: release the workload share
			}
			st.mu.Unlock()
			return r, runErr
		})
	out := make([]*CellSummary, len(grid))
	for ci, g := range grid {
		st := states[ci]
		out[ci] = cellSummary(srcs[g[0]].Name, scens[g[1]].Name, seeds[g[2]], st.study.SystemSize, st.jobCount,
			runs[ci*len(specs):(ci+1)*len(specs)])
	}
	return out, err
}

// loadCell loads and transforms one cell's workload and resolves the
// simulator settings every policy run of the cell shares.
func (c Campaign) loadCell(src scenario.Source, scen scenario.Scenario, seed int64) ([]*job.Job, core.StudyConfig, error) {
	study := c.Study
	wl, err := src.Load(seed)
	if err != nil {
		return nil, study, err
	}
	jobs, err := scen.Apply(wl.Jobs, seed)
	if err != nil {
		return nil, study, err
	}
	// The scenario may tag users with SLO targets; the assignment is
	// derived from the transformed workload (so quantile bands reflect the
	// cell's actual population) and shared read-only by every policy run
	// of the cell.
	asg, err := scen.SLOAssignment(jobs)
	if err != nil {
		return nil, study, err
	}
	study.SLO = asg
	// Likewise for user placement: queue/partition tags route users on the
	// study's topology (or group per-queue report rows on a flat machine).
	placement, err := scen.Placement(jobs)
	if err != nil {
		return nil, study, err
	}
	study.Placement = placement
	if study.SystemSize <= 0 {
		study.SystemSize = wl.SystemSize
	}
	if study.SystemSize <= 0 {
		// No declared size anywhere: the simulator default, widened to fit
		// the workload's widest job.
		study.SystemSize = 1000
		if w := job.MaxNodes(jobs); w > study.SystemSize {
			study.SystemSize = w
		}
	}
	if study.FairshareEpoch == 0 && wl.FairshareEpoch != 0 {
		// Manifest-declared default epoch: a study-level setting still wins.
		study.FairshareEpoch = wl.FairshareEpoch
	}
	if study.FairshareEpoch == 0 && wl.UnixStartTime > 0 {
		// The scenario may have moved the time origin (window slicing);
		// align decay boundaries to the wall clock at the shifted origin.
		study.FairshareEpoch = fairshare.EpochFor(
			wl.UnixStartTime+scen.OriginShift(), study.Fairshare.DecayInterval)
	}
	return jobs, study, nil
}

// runCell loads, transforms and simulates one cell, returning its
// workload, resolved settings and runs (spec order). Policies run serially
// within the cell (the cell is the unit of parallelism), sharing the
// transformed workload read-only.
func (c Campaign) runCell(src scenario.Source, scen scenario.Scenario, seed int64, specs []core.Spec) ([]*job.Job, core.StudyConfig, []*core.Run, error) {
	jobs, study, err := c.loadCell(src, scen, seed)
	if err != nil {
		return nil, study, nil, err
	}
	runs := make([]*core.Run, len(specs))
	for i, sp := range specs {
		if runs[i], err = core.Execute(study, sp, jobs); err != nil {
			return nil, study, nil, err // core.Execute already names the spec
		}
	}
	return jobs, study, runs, nil
}
