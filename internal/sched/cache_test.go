package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"fairsched/internal/job"
	"fairsched/internal/profile"
	"fairsched/internal/sim"
	"fairsched/internal/workload"
)

// scratchEnv is a sim.Env whose Availability is rebuilt from the running
// set on every call (one Occupy per running job until its estimated
// completion) instead of read from the simulator's maintained hold list.
type scratchEnv struct{ sim.Env }

func (e scratchEnv) Availability() *profile.Profile {
	now, size := e.Now(), e.SystemSize()
	p := profile.New(now, size, size)
	for _, r := range e.Running() {
		if err := p.Occupy(now, r.EstimatedCompletion(now), r.Job.Nodes); err != nil {
			panic(fmt.Sprintf("scratch availability: %v", err))
		}
	}
	return p
}

// scratchPolicy runs a policy on scratchEnv. The dynamic conservative
// engine keeps no cache of its own, so its from-scratch reference is the
// same engine on a from-scratch availability profile.
type scratchPolicy struct{ *Composite }

func (p scratchPolicy) Reset(env sim.Env)                { p.Composite.Reset(scratchEnv{env}) }
func (p scratchPolicy) Arrive(env sim.Env, j *job.Job)   { p.Composite.Arrive(scratchEnv{env}, j) }
func (p scratchPolicy) Complete(env sim.Env, j *job.Job) { p.Composite.Complete(scratchEnv{env}, j) }
func (p scratchPolicy) Wake(env sim.Env)                 { p.Composite.Wake(scratchEnv{env}) }

// reference returns spec's from-scratch reference: the static engine with
// its revalidation cache disabled, or the dynamic engine on scratchEnv.
func reference(t testing.TB, spec string) sim.Policy {
	t.Helper()
	pol := MustParse(spec)
	eng, ok := pol.engine.(*conservativeEngine)
	if !ok {
		t.Fatalf("%s has no conservative engine", spec)
	}
	if eng.dynamic {
		return scratchPolicy{pol}
	}
	eng.noCache = true
	return pol
}

// tierDeadlines gives user u a wait target of u%4 hours: three deadline
// tiers plus untargeted users (u%4 == 0).
type tierDeadlines struct{}

func (tierDeadlines) WaitTarget(user int) (int64, bool) {
	return int64(user%4) * 3600, user%4 != 0
}

// breachLog stands in for the SLO observer's breach-risk signal: a user is
// at risk once one of its jobs started past its deadline, so the edf order
// reorders on observer state as the run goes.
type breachLog struct {
	sim.BaseObserver
	breached map[int]bool
}

func (b *breachLog) JobStarted(env sim.Env, j *job.Job) {
	if w, ok := (tierDeadlines{}).WaitTarget(j.User); ok && env.Now() > j.Submit+w {
		b.breached[j.User] = true
	}
}

func (b *breachLog) UserAtRisk(user int) bool { return b.breached[user] }

// runRecords executes one policy over a workload under an SLO context
// (inert for every order but edf) and returns the full records plus the
// event count.
func runRecords(t testing.TB, pol sim.Policy, cfg sim.Config, jobs []*job.Job) *sim.Result {
	t.Helper()
	risk := &breachLog{breached: map[int]bool{}}
	pol.(interface {
		SetSLOContext(DeadlineSource, BreachRisk)
	}).SetSLOContext(tierDeadlines{}, risk)
	res, err := sim.New(cfg, pol, risk).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertSameSchedule fails unless both results describe the identical
// schedule: same records (submit, start, complete, flags) in the same
// order and the same event count.
func assertSameSchedule(t *testing.T, name string, got, want *sim.Result) {
	t.Helper()
	if got.Events != want.Events {
		t.Errorf("%s: events %d != reference %d", name, got.Events, want.Events)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("%s: %d records != reference %d", name, len(got.Records), len(want.Records))
	}
	for i, g := range got.Records {
		w := want.Records[i]
		if g.Job.ID != w.Job.ID || g.Submit != w.Submit || g.Start != w.Start ||
			g.Complete != w.Complete || g.Killed != w.Killed || g.Finished != w.Finished {
			t.Fatalf("%s: record %d diverged:\n  cached:    %+v (job %d)\n  reference: %+v (job %d)",
				name, i, *g, g.Job.ID, *w, w.Job.ID)
		}
	}
}

// TestConservativeCacheMatchesFromScratch: the static revalidation cache is
// a pure optimization — the produced schedule must be identical, event for
// event, to the from-scratch rebuild on calm and contended workloads, with
// perfect estimates, overestimates and underestimates (overrun backoff, the
// cache's full-rebuild fallback), and with max-runtime splitting and kill
// policies in play. The dynamic engine's only cache is the simulator's
// shared availability profile, so its reference rebuilds that profile from
// the running set at every call. order=edf runs over consdyn only: its
// breach-risk promotion reorders on observer state, which the dynamic
// engine's per-event rebuild reads afresh.
func TestConservativeCacheMatchesFromScratch(t *testing.T) {
	h := int64(3600)
	type tc struct {
		name  string
		cfg   sim.Config
		scale float64
	}
	cases := []tc{
		{"calm", sim.Config{SystemSize: 500, Validate: true}, 0.02},
		{"contended", sim.Config{SystemSize: 100, Validate: true}, 0.05},
		{"split-upfront", sim.Config{SystemSize: 100, MaxRuntime: 24 * h, Split: sim.SplitUpfront, Validate: true}, 0.04},
		{"split-chained", sim.Config{SystemSize: 100, MaxRuntime: 24 * h, Split: sim.SplitChained, Validate: true}, 0.04},
		{"kill-always", sim.Config{SystemSize: 100, Kill: sim.KillAlways, Validate: true}, 0.04},
		{"kill-when-needed", sim.Config{SystemSize: 100, Kill: sim.KillWhenNeeded, Validate: true}, 0.04},
	}
	for _, spec := range []string{"cons.nomax", "consdyn.nomax", "cons.sjf", "consdyn.lxf", "order=edf+bf=consdyn"} {
		for _, c := range cases {
			t.Run(spec+"/"+c.name, func(t *testing.T) {
				jobs, err := workload.Generate(workload.Config{Seed: 11, Scale: c.scale, SystemSize: c.cfg.SystemSize})
				if err != nil {
					t.Fatal(err)
				}
				cached := runRecords(t, MustParse(spec), c.cfg, jobs)
				ref := runRecords(t, reference(t, spec), c.cfg, jobs)
				assertSameSchedule(t, spec+"/"+c.name, cached, ref)
			})
		}
	}
}

// TestConservativeCacheHoleHeavy targets the static cache's early-
// completion path: workloads dominated by large overestimates, so nearly
// every completion is early and opens a hole, and short jobs that can
// actually reach the released windows. Every hole must be compressed into
// exactly the schedule the from-scratch rebuild produces.
func TestConservativeCacheHoleHeavy(t *testing.T) {
	for seed := int64(100); seed < 160; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const size = 24
		n := rng.Intn(60) + 10
		jobs := make([]*job.Job, n)
		for i := range jobs {
			runtime := rng.Int63n(300) + 1
			// Overestimate almost always (holes), occasionally exactly.
			est := runtime * (rng.Int63n(10) + 1)
			if rng.Intn(10) == 0 {
				est = runtime
			}
			nodes := rng.Intn(size/2) + 1
			if rng.Intn(5) == 0 {
				nodes = size/2 + rng.Intn(size/2) + 1 // wide: forces far reservations
			}
			jobs[i] = &job.Job{
				ID:       job.ID(i + 1),
				User:     rng.Intn(6) + 1,
				Submit:   rng.Int63n(600),
				Runtime:  runtime,
				Estimate: est,
				Nodes:    nodes,
			}
		}
		for _, spec := range []string{"cons.nomax", "cons.lxf", "cons.sjf"} {
			cfg := sim.Config{SystemSize: size, Validate: true}
			cached := runRecords(t, MustParse(spec), cfg, jobs)
			ref := runRecords(t, reference(t, spec), cfg, jobs)
			assertSameSchedule(t, spec, cached, ref)
			if t.Failed() {
				t.Fatalf("seed %d diverged", seed)
			}
		}
	}
}

// TestConservativeCacheMatchesRandomized sweeps random small workloads with
// mixed estimate quality — heavy on underestimates, so the overrun-backoff
// fallback and the same-instant completion batches are exercised — through
// cached and reference engines (for consdyn, the overrun placement of the
// simulator's hold list against a from-scratch profile).
func TestConservativeCacheMatchesRandomized(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const size = 16
		n := rng.Intn(40) + 5
		jobs := make([]*job.Job, n)
		for i := range jobs {
			runtime := rng.Int63n(500) + 1
			est := runtime
			switch rng.Intn(3) {
			case 0:
				est = runtime * (rng.Int63n(8) + 1)
			case 1:
				est = runtime/2 + 1
			}
			jobs[i] = &job.Job{
				ID:       job.ID(i + 1),
				User:     rng.Intn(4) + 1,
				Submit:   rng.Int63n(1000),
				Runtime:  runtime,
				Estimate: est,
				Nodes:    rng.Intn(size) + 1,
			}
		}
		for _, spec := range []string{"cons.nomax", "consdyn.nomax"} {
			cfg := sim.Config{SystemSize: size, Validate: true}
			cached := runRecords(t, MustParse(spec), cfg, jobs)
			ref := runRecords(t, reference(t, spec), cfg, jobs)
			for i := range cached.Records {
				g, w := cached.Records[i], ref.Records[i]
				if g.Job.ID != w.Job.ID || g.Start != w.Start || g.Complete != w.Complete {
					t.Fatalf("seed %d %s record %d: cached start=%d complete=%d, reference start=%d complete=%d (job %d vs %d)",
						seed, spec, i, g.Start, g.Complete, w.Start, w.Complete, g.Job.ID, w.Job.ID)
				}
			}
			if cached.Events != ref.Events {
				t.Fatalf("seed %d %s: events %d != %d", seed, spec, cached.Events, ref.Events)
			}
		}
	}
}
