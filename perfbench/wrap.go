package main

import (
	"fmt"

	"fairsched/internal/core"
	"fairsched/internal/experiments"
	"fairsched/internal/fairness"
	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/metrics"
	"fairsched/internal/profile"
	"fairsched/internal/scenario"
	"fairsched/internal/sched"
	"fairsched/internal/sim"
	"fairsched/internal/slo"
	"fairsched/internal/sweep"
)

// The traced pass replays the program's entry points with every call into a
// layer's public functions wrapped in a span. The wrappers only time and
// forward: a traced pass must render the same report as an untraced one.

// tracedPolicy wraps the composed policy ("sched") and hands it an
// environment that times the availability profile ("profile") and the
// simulator calls the policy makes ("sim").
type tracedPolicy struct {
	r     *runTrace
	inner *sched.Composite
	raw   sim.Env
	env   sim.Env
}

// wrap returns the traced view of the simulator's environment, keeping the
// optional sim.Preempter extension the policy discovers by type assertion.
func (p *tracedPolicy) wrap(env sim.Env) sim.Env {
	if env == p.raw && p.env != nil {
		return p.env
	}
	te := tracedEnv{Env: env, r: p.r}
	p.raw, p.env = env, te
	if pe, ok := env.(sim.Preempter); ok {
		p.env = tracedPreemptEnv{tracedEnv: te, p: pe}
	}
	return p.env
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Reset(env sim.Env) {
	e := p.wrap(env)
	p.r.enter("sched.reset")
	p.inner.Reset(e)
	p.r.exit()
}

func (p *tracedPolicy) Arrive(env sim.Env, j *job.Job) {
	e := p.wrap(env)
	p.r.enter("sched.pass")
	p.inner.Arrive(e, j)
	p.r.exit()
}

func (p *tracedPolicy) Complete(env sim.Env, j *job.Job) {
	e := p.wrap(env)
	p.r.enter("sched.pass")
	p.inner.Complete(e, j)
	p.r.exit()
}

func (p *tracedPolicy) Wake(env sim.Env) {
	e := p.wrap(env)
	p.r.enter("sched.pass")
	p.inner.Wake(e)
	p.r.exit()
}

func (p *tracedPolicy) NextWake(now int64) (int64, bool) {
	p.r.enter("sched.next_wake")
	at, ok := p.inner.NextWake(now)
	p.r.exit()
	return at, ok
}

func (p *tracedPolicy) Queued() []*job.Job { return p.inner.Queued() }

type tracedEnv struct {
	sim.Env
	r *runTrace
}

func (e tracedEnv) Availability() *profile.Profile {
	e.r.enter("profile.availability")
	prof := e.Env.Availability()
	e.r.exit()
	return prof
}

func (e tracedEnv) Start(j *job.Job) error {
	e.r.enter("sim.start")
	err := e.Env.Start(j)
	e.r.exit()
	return err
}

type tracedPreemptEnv struct {
	tracedEnv
	p sim.Preempter
}

func (e tracedPreemptEnv) CanPreempt(j *job.Job) bool { return e.p.CanPreempt(j) }

func (e tracedPreemptEnv) Preempt(j *job.Job) error {
	e.r.enter("sim.preempt")
	err := e.p.Preempt(j)
	e.r.exit()
	return err
}

// tracedObserver times every callback of one observer under name.
type tracedObserver struct {
	r     *runTrace
	name  string
	inner sim.Observer
}

func (o *tracedObserver) JobArrived(env sim.Env, j *job.Job, queued []*job.Job) {
	o.r.enter(o.name)
	o.inner.JobArrived(env, j, queued)
	o.r.exit()
}

func (o *tracedObserver) JobStarted(env sim.Env, j *job.Job) {
	o.r.enter(o.name)
	o.inner.JobStarted(env, j)
	o.r.exit()
}

func (o *tracedObserver) JobCompleted(env sim.Env, j *job.Job, start int64) {
	o.r.enter(o.name)
	o.inner.JobCompleted(env, j, start)
	o.r.exit()
}

func (o *tracedObserver) Interval(from, to int64, usedNodes, queuedNodes int) {
	o.r.enter(o.name)
	o.inner.Interval(from, to, usedNodes, queuedNodes)
	o.r.exit()
}

func (o *tracedObserver) Done(env sim.Env) {
	o.r.enter(o.name)
	o.inner.Done(env)
	o.r.exit()
}

// tracedExecute is core.Execute with its layers traced. The flat path is
// replayed call for call; a topology run is timed whole, because its
// per-partition loops are built inside core.
func tracedExecute(r *runTrace, cfg core.StudyConfig, spec core.Spec, workload []*job.Job) (*core.Run, error) {
	r.enter("core.execute")
	defer r.exit()
	if cfg.SystemSize <= 0 {
		cfg.SystemSize = 1000
	}
	if cfg.Topology != nil {
		return core.Execute(cfg, spec, workload)
	}
	if cfg.Equality || len(cfg.Placement.QueuePaths()) > 0 {
		return nil, fmt.Errorf("perfbench: %s: the traced replica covers neither the equality observer nor queue rows", spec.String())
	}
	pol, err := sched.New(spec)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	simCfg := sim.Config{
		SystemSize:     cfg.SystemSize,
		Fairshare:      cfg.Fairshare,
		FairshareEpoch: cfg.FairshareEpoch,
		MaxRuntime:     spec.MaxRuntime,
		Split:          cfg.Split,
		Kill:           cfg.Kill,
		Validate:       cfg.Validate,
		Preemptable:    spec.PreemptTrigger != "",
	}
	if simCfg.Preemptable && simCfg.MaxRuntime > 0 {
		return nil, fmt.Errorf("core: %s: checkpoint preemption does not compose with max-runtime splitting", spec.String())
	}
	col := metrics.NewCollector(cfg.SystemSize)
	observers := []sim.Observer{&tracedObserver{r, "metrics.collector", col}}
	var fst *fairness.HybridFST
	if !cfg.SkipFST {
		fst = fairness.NewHybridFST()
		observers = append(observers, &tracedObserver{r, "fairness.fst", fst})
	}
	var sloObs *fairness.SLOObserver
	if cfg.SLO.NumUsers() > 0 {
		// The observer reads the unwrapped engine, and the policy's SLO
		// context is set on the inner composite, as core.Execute does.
		sloObs = fairness.NewSLOObserver(cfg.SLO, fst)
		if cfg.Split == sim.SplitChained || simCfg.Preemptable {
			sloObs.SetChained(true)
		}
		observers = append(observers, &tracedObserver{r, "fairness.slo", sloObs})
		pol.SetSLOContext(cfg.SLO, sloObs)
	}
	s := sim.New(simCfg, &tracedPolicy{r: r, inner: pol}, observers...)
	r.enter("sim.run")
	res, err := s.Run(workload)
	r.exit()
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", spec.String(), err)
	}
	r.count("sim.events", res.Events)
	run := &core.Run{Spec: spec, Result: res}
	if fst != nil {
		r.enter("fairness.fst")
		run.FST = fst.Table()
		r.exit()
	}
	if sloObs != nil {
		r.enter("fairness.slo")
		run.SLO = sloObs.Summary()
		r.exit()
	}
	r.enter("metrics.summarize")
	run.Summary = metrics.Summarize(res, run.FST, col)
	r.exit()
	run.Summary.Policy = spec.String()
	return run, nil
}

// tracedMap is sweep.Map with the pool traced: the "sweep.map" span in the
// caller's run, and one run per item whose root span is named item. The
// pool's capacity, workers times the span's length, lands in the
// "sweep.capacity_ns" counter.
func tracedMap[T, R any](rt *runTrace, parallel int, items []T, label func(T) string, item string, fn func(*runTrace, T) (R, error)) ([]R, error) {
	workers := sweep.Workers(parallel)
	if workers > len(items) {
		workers = len(items)
	}
	rt.enter("sweep.map")
	defer rt.exit()
	parent, t0 := rt.current(), rt.t.now()
	out, err := sweep.Map(parallel, items, label, func(_ int, it T) (R, error) {
		r := rt.t.newRun(parent)
		defer r.finish()
		r.enter(item)
		defer r.exit()
		return fn(r, it)
	})
	rt.count("sweep.capacity_ns", int64(workers)*(rt.t.now()-t0))
	return out, err
}

// tracedRunOn is experiments.RunOnParallel traced: the nine paper policies
// through the sweep pool.
func tracedRunOn(rt *runTrace, study core.StudyConfig, jobs []*job.Job, parallel int) (*experiments.Results, error) {
	runs, err := tracedMap(rt, parallel, core.AllSpecs(), func(s core.Spec) string { return s.Key }, "sweep.task",
		func(r *runTrace, s core.Spec) (*core.Run, error) {
			return tracedExecute(r, study, s, jobs)
		})
	if err != nil {
		return nil, err
	}
	res := &experiments.Results{Jobs: jobs, ByKey: make(map[string]*metrics.Summary, len(runs)), Runs: runs}
	for _, r := range runs {
		res.ByKey[r.Spec.Key] = r.Summary
		res.AllKeys = append(res.AllKeys, r.Spec.Key)
	}
	for _, s := range core.MinorSpecs() {
		res.MinorKeys = append(res.MinorKeys, s.Key)
	}
	return res, nil
}

// tracedCampaign is sweep.Campaign.Run (cell mode) traced: the pool, each
// cell's source load and transforms, and every policy run.
func tracedCampaign(rt *runTrace, c sweep.Campaign) ([]*sweep.CellSummary, error) {
	if c.PolicyParallel || len(c.Scenarios) == 0 || len(c.Seeds) == 0 || len(c.Specs) == 0 {
		return nil, fmt.Errorf("perfbench: the traced campaign needs cell mode and explicit scenarios, seeds and specs")
	}
	type cellIdx struct{ src, scen, seed int }
	var grid []cellIdx
	for si := range c.Sources {
		for ci := range c.Scenarios {
			for di := range c.Seeds {
				grid = append(grid, cellIdx{si, ci, di})
			}
		}
	}
	return tracedMap(rt, c.Parallel, grid,
		func(g cellIdx) string {
			return fmt.Sprintf("%s × %s × seed %d", c.Sources[g.src].Name, c.Scenarios[g.scen].Name, c.Seeds[g.seed])
		}, "sweep.cell",
		func(r *runTrace, g cellIdx) (*sweep.CellSummary, error) {
			src, scen, seed := c.Sources[g.src], c.Scenarios[g.scen], c.Seeds[g.seed]
			jobs, study, err := tracedLoadCell(r, c.Study, src, scen, seed)
			if err != nil {
				return nil, err
			}
			sum := &sweep.CellSummary{
				Source:     src.Name,
				Scenario:   scen.Name,
				Seed:       seed,
				SystemSize: study.SystemSize,
				Jobs:       len(jobs),
				Policies:   make([]string, len(c.Specs)),
				Summaries:  make([]*metrics.Summary, len(c.Specs)),
			}
			for i, sp := range c.Specs {
				run, err := tracedExecute(r, study, sp, jobs)
				if err != nil {
					return nil, err
				}
				sum.Policies[i] = run.Spec.Key
				sum.Summaries[i] = run.Summary
				if run.SLO != nil {
					if sum.SLOs == nil {
						sum.SLOs = make([]*slo.Summary, len(c.Specs))
					}
					sum.SLOs[i] = run.SLO
				}
			}
			return sum, nil
		})
}

// tracedLoadCell replays the campaign's per-cell load: the source
// ("scenario.load"), then the transforms, SLO assignment and placement
// ("scenario.apply"), then the simulator settings.
func tracedLoadCell(r *runTrace, study core.StudyConfig, src scenario.Source, scen scenario.Scenario, seed int64) ([]*job.Job, core.StudyConfig, error) {
	r.enter("scenario.load")
	wl, err := src.Load(seed)
	r.exit()
	if err != nil {
		return nil, study, err
	}
	r.enter("scenario.apply")
	defer r.exit()
	jobs, err := scen.Apply(wl.Jobs, seed)
	if err != nil {
		return nil, study, err
	}
	asg, err := scen.SLOAssignment(jobs)
	if err != nil {
		return nil, study, err
	}
	study.SLO = asg
	placement, err := scen.Placement(jobs)
	if err != nil {
		return nil, study, err
	}
	study.Placement = placement
	if study.SystemSize <= 0 {
		study.SystemSize = wl.SystemSize
	}
	if study.SystemSize <= 0 {
		study.SystemSize = 1000
		if w := job.MaxNodes(jobs); w > study.SystemSize {
			study.SystemSize = w
		}
	}
	if study.FairshareEpoch == 0 && wl.FairshareEpoch != 0 {
		study.FairshareEpoch = wl.FairshareEpoch
	}
	if study.FairshareEpoch == 0 && wl.UnixStartTime > 0 {
		study.FairshareEpoch = fairshare.EpochFor(
			wl.UnixStartTime+scen.OriginShift(), study.Fairshare.DecayInterval)
	}
	return jobs, study, nil
}
