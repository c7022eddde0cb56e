package sim

import (
	"slices"
	"strings"
	"testing"

	"fairsched/internal/job"
	"fairsched/internal/profile"
)

// availProbe is a policy that inspects the shared availability profile
// during its scheduling events.
type availProbe struct {
	greedy
	t       *testing.T
	checked bool
	// overrun counts inspections that saw a running job past its estimate,
	// i.e. one whose hold had to be re-placed at a backed-off completion.
	overrun int
}

func (p *availProbe) Arrive(env Env, j *job.Job) {
	p.inspect(env)
	p.greedy.Arrive(env, j)
	p.inspect(env)
}

func (p *availProbe) Complete(env Env, j *job.Job) {
	p.inspect(env)
	p.greedy.Complete(env, j)
}

// referenceAvailability builds the profile straight from the running set:
// one Occupy per running job until its estimated completion, backed off
// for overrunners.
func referenceAvailability(t *testing.T, env Env) *profile.Profile {
	t.Helper()
	now := env.Now()
	ref := profile.New(now, env.SystemSize(), env.SystemSize())
	for _, r := range env.Running() {
		if err := ref.Occupy(now, r.EstimatedCompletion(now), r.Job.Nodes); err != nil {
			t.Fatal(err)
		}
	}
	return ref
}

// checkAgainstReference fails the test unless the shared profile equals the
// one rebuilt from the running set.
func checkAgainstReference(t *testing.T, env Env) {
	t.Helper()
	gotT, gotF := env.Availability().Breakpoints()
	wantT, wantF := referenceAvailability(t, env).Breakpoints()
	if !slices.Equal(gotT, wantT) || !slices.Equal(gotF, wantF) {
		t.Errorf("t=%d: availability %v/%v, reference %v/%v", env.Now(), gotT, gotF, wantT, wantF)
	}
}

func (p *availProbe) inspect(env Env) {
	prof := env.Availability()
	now := env.Now()
	if prof.Origin() != now {
		p.t.Errorf("availability origin %d != now %d", prof.Origin(), now)
	}
	if got := prof.FreeAt(now); got != env.FreeNodes() {
		p.t.Errorf("availability free at now = %d, want FreeNodes %d", got, env.FreeNodes())
	}
	if got := prof.SteadyFree(); got != env.SystemSize() {
		p.t.Errorf("availability steady free = %d, want full system %d", got, env.SystemSize())
	}
	checkAgainstReference(p.t, env)
	for _, r := range env.Running() {
		if r.Start+r.Job.Estimate <= now {
			p.overrun++
			break
		}
	}
	// The cache returns the same profile while nothing changed...
	if again := env.Availability(); again != prof {
		p.t.Error("availability rebuilt without invalidation")
	}
	p.checked = true
}

func TestAvailabilityReflectsRunningSetAndCaches(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 100, Estimate: 120, Nodes: 6},
		{ID: 2, User: 2, Submit: 10, Runtime: 200, Estimate: 200, Nodes: 2},
		{ID: 3, User: 3, Submit: 20, Runtime: 50, Estimate: 60, Nodes: 4},
		{ID: 4, User: 4, Submit: 150, Runtime: 80, Estimate: 80, Nodes: 8},
	}
	probe := &availProbe{t: t}
	if _, err := New(Config{SystemSize: 8, Validate: true}, probe).Run(jobs); err != nil {
		t.Fatal(err)
	}
	if !probe.checked {
		t.Fatal("probe never ran")
	}
}

// startInvalidates is a policy asserting that Start invalidates the shared
// profile within one scheduling pass.
type startInvalidates struct {
	greedy
	t       *testing.T
	checked bool
}

func (p *startInvalidates) Arrive(env Env, j *job.Job) {
	if j.Nodes <= env.FreeNodes() {
		before := env.Availability().FreeAt(env.Now())
		if err := env.Start(j); err != nil {
			p.t.Fatal(err)
		}
		after := env.Availability().FreeAt(env.Now())
		if after != before-j.Nodes {
			p.t.Errorf("availability stale after Start: free %d -> %d, want %d",
				before, after, before-j.Nodes)
		}
		p.checked = true
		return
	}
	p.greedy.Arrive(env, j)
}

func TestAvailabilityInvalidatedByStart(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 100, Estimate: 100, Nodes: 3},
		{ID: 2, User: 2, Submit: 5, Runtime: 100, Estimate: 100, Nodes: 3},
	}
	probe := &startInvalidates{t: t}
	if _, err := New(Config{SystemSize: 8, Validate: true}, probe).Run(jobs); err != nil {
		t.Fatal(err)
	}
	if !probe.checked {
		t.Fatal("probe never started a job")
	}
}

// TestAvailabilityBacksOffOverrunners runs jobs whose estimates are below
// their runtimes under KillNever and reads the profile at many clock
// advances while they overrun: each overrunner's hold must move to the
// next doubling of its estimate, exactly as RunningJob.EstimatedCompletion.
func TestAvailabilityBacksOffOverrunners(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 500, Estimate: 10, Nodes: 3},
		{ID: 2, User: 2, Submit: 0, Runtime: 300, Estimate: 10, Nodes: 2}, // ties job 1
		{ID: 3, User: 3, Submit: 5, Runtime: 400, Estimate: 35, Nodes: 1},
	}
	// A stream of short jobs keeps the clock advancing through the overruns.
	for i := 0; i < 60; i++ {
		id := job.ID(10 + i)
		jobs = append(jobs, &job.Job{ID: id, User: 4 + i%3, Submit: int64(1 + 9*i), Runtime: 4 + int64(i%5), Estimate: 6, Nodes: 1 + i%2})
	}
	probe := &availProbe{t: t}
	if _, err := New(Config{SystemSize: 8, Kill: KillNever, Validate: true}, probe).Run(jobs); err != nil {
		t.Fatal(err)
	}
	if probe.overrun < 20 {
		t.Fatalf("only %d inspections saw an overrunning job", probe.overrun)
	}
}

// holdCorrupter is a policy that damages the simulator's hold list once,
// as a bookkeeping bug would.
type holdCorrupter struct {
	greedy
	corrupt func(s *Simulator)
	done    bool
}

func (p *holdCorrupter) Arrive(env Env, j *job.Job) {
	p.greedy.Arrive(env, j)
	if s := env.(*Simulator); !p.done && len(s.holds) > 1 {
		p.corrupt(s)
		p.done = true
	}
}

// TestValidateCatchesHoldDrift: with Validate on, a hold list that no
// longer mirrors the running set fails the run with an error.
func TestValidateCatchesHoldDrift(t *testing.T) {
	jobs := []*job.Job{
		{ID: 1, User: 1, Submit: 0, Runtime: 100, Estimate: 100, Nodes: 2},
		{ID: 2, User: 2, Submit: 5, Runtime: 50, Estimate: 60, Nodes: 3},
		{ID: 3, User: 3, Submit: 9, Runtime: 10, Estimate: 10, Nodes: 1},
	}
	cases := map[string]func(s *Simulator){
		"missing":   func(s *Simulator) { s.holds = s.holds[1:] },
		"nodes":     func(s *Simulator) { s.holds[0].Nodes++ },
		"unsorted":  func(s *Simulator) { s.holds[0], s.holds[1] = s.holds[1], s.holds[0] },
		"estimate":  func(s *Simulator) { s.holds[1].At++ },
		"duplicate": func(s *Simulator) { s.holds[1].ID = s.holds[0].ID },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			pol := &holdCorrupter{corrupt: corrupt}
			_, err := New(Config{SystemSize: 8, Validate: true}, pol).Run(jobs)
			if err == nil || !strings.Contains(err.Error(), "hold") {
				t.Fatalf("corrupted hold list: err = %v, want a hold-list drift error", err)
			}
		})
	}
}

// CheckAvailabilityAgainstReference exposes checkAgainstReference to the
// external sim_test package, whose tests drive real policies from sched.
var CheckAvailabilityAgainstReference = checkAgainstReference
