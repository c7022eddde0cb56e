// Command workloadgen generates the synthetic CPlant/Ross workload trace in
// Standard Workload Format v2 (the study's substitute for the unreleased
// PBS/yod logs — see DESIGN.md §5), or a population-scale generated
// workload (DESIGN.md §15) via -pop.
//
// Usage:
//
//	workloadgen -out ross.swf [-seed 42] [-nodes 1000] [-scale 1.0]
//	workloadgen -pop 'users:100k,jobs:25k' -out pop.swf
//	workloadgen -pop 'users:1m,cohorts:8' -stats
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fairsched/internal/job"
	"fairsched/internal/scenario"
	"fairsched/internal/swf"
	"fairsched/internal/userdex"
	"fairsched/internal/workload"
)

func main() {
	var (
		out     = flag.String("out", "", "output SWF file (default stdout)")
		seed    = flag.Int64("seed", 42, "generator seed")
		nodes   = flag.Int("nodes", 0, "system size (default 1000, or the population's maxnodes)")
		scale   = flag.Float64("scale", 1.0, "job-count scale factor")
		weeks   = flag.Int("weeks", 0, "trace horizon in weeks (default 33)")
		users   = flag.Int("users", 0, "user population (default 96)")
		gamma   = flag.Float64("burst", 0, "burst gamma (default 0.5)")
		pop     = flag.String("pop", "", "generate a population instead: pop= spec value (e.g. 'users:100k,jobs:25k,churn:0.5'; empty keys default)")
		stats   = flag.Bool("stats", false, "stream the workload through a summary instead of writing SWF")
		verbose = flag.Bool("v", false, "print summary statistics")
	)
	flag.Parse()
	wcfg := workload.Config{
		Seed:       *seed,
		SystemSize: *nodes,
		Scale:      *scale,
		Weeks:      *weeks,
		Users:      *users,
		BurstGamma: *gamma,
	}
	if err := wcfg.Validate(); err != nil {
		fatal(err)
	}
	popSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "pop" {
			popSet = true
		}
	})

	if popSet {
		runPopulation(*pop, *seed, *nodes, *out, *stats, *verbose)
		return
	}

	jobs, err := workload.Generate(wcfg)
	if err != nil {
		fatal(err)
	}

	size := *nodes
	if size <= 0 {
		size = 1000
	}
	if *stats {
		var sum summary
		for _, j := range jobs {
			sum.add(j)
		}
		sum.print("synthetic", 0)
		return
	}
	trace := swf.FromJobs(jobs, swf.Header{
		Version:       2,
		Computer:      "Sandia CPlant/Ross (synthetic reproduction)",
		MaxNodes:      size,
		MaxProcs:      size,
		UnixStartTime: 1038700800, // December 1, 2002 00:00 UTC
		TimeZone:      "UTC",
		Note: []string{
			fmt.Sprintf("Generated by workloadgen seed=%d scale=%g", *seed, *scale),
			"Calibrated to Tables 1-2 and Figures 3-7 of SAND2008-1310",
		},
	})

	writeTrace(*out, trace, *verbose, jobs)
}

// runPopulation handles -pop: parse the spec through the same grammar as
// the pop= scenario axis, then either stream a constant-memory summary
// (-stats) or materialize an SWF trace.
func runPopulation(spec string, seed int64, nodes int, out string, stats, verbose bool) {
	p, err := scenario.ParsePop(spec)
	if err != nil {
		fatal(err)
	}
	cfg := p.Config(seed)
	if nodes > 0 {
		cfg.SystemSize = nodes
	}
	if stats {
		var sum summary
		t0 := time.Now()
		if _, err := workload.StreamPopulation(cfg, func(j *job.Job) error {
			sum.add(j)
			return nil
		}); err != nil {
			fatal(err)
		}
		sum.print(p.Name(), time.Since(t0))
		return
	}
	jobs, err := workload.GeneratePopulation(cfg)
	if err != nil {
		fatal(err)
	}
	trace := swf.FromJobs(jobs, swf.Header{
		Version:  2,
		Computer: "Generated population (fairsched workloadgen)",
		MaxNodes: cfg.SystemSize,
		MaxProcs: cfg.SystemSize,
		TimeZone: "UTC",
		Note: []string{
			fmt.Sprintf("Generated by workloadgen seed=%d %s", seed, p.Name()),
		},
	})
	writeTrace(out, trace, verbose, jobs)
}

func writeTrace(out string, trace *swf.Trace, verbose bool, jobs []*job.Job) {
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := swf.Write(w, trace); err != nil {
		fatal(err)
	}
	if verbose {
		var procHours float64
		for _, j := range jobs {
			procHours += float64(j.ProcSeconds()) / 3600
		}
		fmt.Fprintf(os.Stderr, "wrote %d jobs, %.0f processor-hours\n", len(jobs), procHours)
	}
}

// summary accumulates streaming workload statistics in bounded memory: the
// distinct-user set rides the paged userdex bitmap, so a million-user
// population costs kilobytes, not a hash table.
type summary struct {
	jobs      int
	procSec   float64
	runSec    float64
	nodeSum   int64
	maxNodes  int
	firstSub  int64
	lastSub   int64
	seenUsers userdex.Map[struct{}]
}

func (s *summary) add(j *job.Job) {
	if s.jobs == 0 {
		s.firstSub = j.Submit
	}
	s.jobs++
	s.lastSub = j.Submit
	s.procSec += float64(j.ProcSeconds())
	s.runSec += float64(j.Runtime)
	s.nodeSum += int64(j.Nodes)
	if j.Nodes > s.maxNodes {
		s.maxNodes = j.Nodes
	}
	s.seenUsers.Set(j.User, struct{}{})
}

func (s *summary) print(name string, elapsed time.Duration) {
	fmt.Printf("workload: %s\n", name)
	fmt.Printf("jobs: %d\n", s.jobs)
	fmt.Printf("distinct users: %d\n", s.seenUsers.Len())
	fmt.Printf("processor-hours: %.0f\n", s.procSec/3600)
	if s.jobs > 0 {
		fmt.Printf("mean runtime: %.0fs  mean width: %.1f nodes  max width: %d nodes\n",
			s.runSec/float64(s.jobs), float64(s.nodeSum)/float64(s.jobs), s.maxNodes)
		fmt.Printf("span: %.1f days\n", float64(s.lastSub-s.firstSub)/86400)
	}
	if elapsed > 0 {
		fmt.Printf("generated in %s (%.0f jobs/sec, %.0f users/sec)\n",
			elapsed.Round(time.Millisecond),
			float64(s.jobs)/elapsed.Seconds(),
			float64(s.seenUsers.Len())/elapsed.Seconds())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "workloadgen:", err)
	os.Exit(1)
}
