// Package workload generates a synthetic CPlant/Ross trace. The real
// PBS+yod logs the paper used were never fully released, so this package is
// the study's data substitute (see DESIGN.md §5): it reproduces the paper's
// Table 1 job-count grid exactly, rescales per-cell runtimes to match the
// Table 2 processor-hours, draws node counts from the powers-of-two/squares
// menus visible in Figure 4, wall-clock limits with the runtime-dependent
// overestimation of Figures 5-7, Zipf-distributed users (fairshare
// dynamics), and the bursty 33-week arrival profile of Figure 3.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"fairsched/internal/job"
)

// Config parameterizes the generator. The zero value is completed by
// defaults matching the paper's environment.
type Config struct {
	// Seed drives the deterministic RNG (same seed, same trace).
	Seed int64
	// SystemSize is the cluster size; jobs never exceed it. Default 1000
	// (see DESIGN.md §5: chosen so the trace's Table 2 processor-hours
	// reproduce Figure 3's 60-120%% weekly offered-load regime).
	SystemSize int
	// Weeks is the trace horizon (default 33, the paper's 231 days).
	Weeks int
	// Users is the size of the user population (default 96).
	Users int
	// Groups is the number of accounting groups (default 12).
	Groups int
	// Scale multiplies every Table 1 cell count (and the Table 2 targets),
	// rounding half up. 1.0 reproduces the full trace; benches and tests
	// use smaller scales. Default 1.0.
	Scale float64
	// UnderestimateProb is the chance a job's wall-clock limit understates
	// its runtime (the trace lets such jobs overrun). Default 0.05; set
	// negative to disable underestimates entirely.
	UnderestimateProb float64
	// BurstGamma shapes the weekly arrival bursts: each week's relative
	// intensity is raised to this exponent around the mean, so 1.0 keeps
	// the raw Figure 3 profile, values below 1 flatten it, values above 1
	// sharpen it. Default 0.3, the calibrated operating point at which the
	// baseline policy lands on the paper's reported metrics and the
	// evaluation's qualitative claims reproduce (DESIGN.md §5).
	BurstGamma float64
}

// Validate rejects a configuration the generator would otherwise silently
// replace with its defaults: a negative (or NaN) scale or burst gamma, or a
// negative system size, horizon, user or group count. Zero means the
// default for each, and Generate itself keeps mapping zero values to the
// defaults. UnderestimateProb is not checked: a negative value is the
// documented way to disable underestimates.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"scale", c.Scale}, {"burst gamma", c.BurstGamma}} {
		if !(f.v >= 0) {
			return fmt.Errorf("workload: %s %v is negative (0 means the default)", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"system size", c.SystemSize}, {"weeks", c.Weeks}, {"users", c.Users}, {"groups", c.Groups}} {
		if f.v < 0 {
			return fmt.Errorf("workload: %s %d is negative (0 means the default)", f.name, f.v)
		}
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.SystemSize <= 0 {
		c.SystemSize = 1000
	}
	if c.Weeks <= 0 {
		c.Weeks = 33
	}
	if c.Users <= 0 {
		c.Users = 96
	}
	if c.Groups <= 0 {
		c.Groups = 12
	}
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	switch {
	case c.UnderestimateProb == 0:
		c.UnderestimateProb = 0.05
	case c.UnderestimateProb < 0 || c.UnderestimateProb >= 1:
		c.UnderestimateProb = 0
	}
	if c.BurstGamma <= 0 {
		c.BurstGamma = 0.3
	}
	return c
}

// maxRuntimeCap bounds the open-ended "2+ days" length category (Figure 4's
// longest runtimes are around 10^6.3 seconds).
const maxRuntimeCap = 21 * 24 * 3600

// Generate produces the synthetic trace, sorted by submit time, with ids
// assigned in submit order starting at 1.
func Generate(cfg Config) ([]*job.Job, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	jobs, err := generateShapes(cfg, rng)
	if err != nil {
		return nil, err
	}
	users := newUserModel(cfg, rng)
	for _, j := range jobs {
		j.User = users.pick(rng, j.Nodes)
		j.Group = users.group(j.User)
	}
	assignArrivals(cfg, rng, jobs)
	for _, j := range jobs {
		j.Estimate = drawEstimate(cfg, rng, j.Runtime)
	}
	sort.SliceStable(jobs, func(i, k int) bool {
		if jobs[i].Submit != jobs[k].Submit {
			return jobs[i].Submit < jobs[k].Submit
		}
		// Pre-id tie-break on shape for determinism.
		if jobs[i].Nodes != jobs[k].Nodes {
			return jobs[i].Nodes < jobs[k].Nodes
		}
		return jobs[i].Runtime < jobs[k].Runtime
	})
	for i, j := range jobs {
		j.ID = job.ID(i + 1)
	}
	if err := job.ValidateAll(jobs, cfg.SystemSize); err != nil {
		return nil, fmt.Errorf("workload: generated trace invalid: %w", err)
	}
	return jobs, nil
}

// generateShapes builds (nodes, runtime) pairs cell by cell: Table 1 counts
// exactly (after scaling), Table 2 proc-hours approximately.
func generateShapes(cfg Config, rng *rand.Rand) ([]*job.Job, error) {
	var jobs []*job.Job
	for w := 0; w < job.NumWidthCategories; w++ {
		for l := 0; l < job.NumLengthCategories; l++ {
			count := scaledCount(Table1Counts[w][l], cfg.Scale)
			if count == 0 {
				continue
			}
			cell, err := generateCell(cfg, rng, w, l, count)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, cell...)
		}
	}
	return jobs, nil
}

func scaledCount(count int, scale float64) int {
	if count == 0 {
		return 0
	}
	n := int(math.Floor(float64(count)*scale + 0.5))
	if n < 0 {
		n = 0
	}
	return n
}

// generateCell samples count jobs within one (width, length) cell, then
// rescales runtimes (clamped to the cell's bounds) so the cell's total
// processor-hours approach the Table 2 target.
func generateCell(cfg Config, rng *rand.Rand, w, l, count int) ([]*job.Job, error) {
	lo, hi := job.LengthBounds(l)
	if hi == 0 {
		hi = maxRuntimeCap
	}
	if lo < 1 {
		lo = 1
	}
	jobs := make([]*job.Job, count)
	for i := range jobs {
		nodes := sampleWidth(rng, w, cfg.SystemSize)
		runtime := sampleLogUniform(rng, lo, hi)
		jobs[i] = &job.Job{Nodes: nodes, Runtime: runtime}
	}
	target := Table2ProcHours[w][l] * 3600 * float64(count) / float64(Table1Counts[w][l])
	if target <= 0 {
		return jobs, nil
	}
	// Iterative proportional rescaling: clamping distorts the total, so a
	// few passes converge close to the target without leaving the cell.
	for pass := 0; pass < 4; pass++ {
		var actual float64
		for _, j := range jobs {
			actual += float64(j.ProcSeconds())
		}
		if actual <= 0 {
			break
		}
		factor := target / actual
		if math.Abs(factor-1) < 0.01 {
			break
		}
		for _, j := range jobs {
			r := int64(math.Round(float64(j.Runtime) * factor))
			if r < lo {
				r = lo
			}
			if r >= hi {
				r = hi - 1
			}
			if r < 1 {
				r = 1
			}
			j.Runtime = r
		}
	}
	return jobs, nil
}

// sampleLogUniform draws from [lo, hi) with log-uniform density, matching
// the heavy short-job skew of the trace.
func sampleLogUniform(rng *rand.Rand, lo, hi int64) int64 {
	if hi <= lo+1 {
		return lo
	}
	v := float64(lo) * math.Pow(float64(hi)/float64(lo), rng.Float64())
	r := int64(v)
	if r < lo {
		r = lo
	}
	if r >= hi {
		r = hi - 1
	}
	return r
}
