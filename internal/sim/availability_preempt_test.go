package sim_test

import (
	"math/rand"
	"testing"

	"fairsched/internal/job"
	"fairsched/internal/sched"
	"fairsched/internal/sim"
)

// srptProbe wraps the srpt policy and compares the shared availability
// profile with a reference rebuilt from the running set before and after
// every scheduling pass, so starts, preemptions and overruns all reach it.
type srptProbe struct {
	*sched.Composite
	t       *testing.T
	overrun int
}

func (p *srptProbe) inspect(env sim.Env) {
	sim.CheckAvailabilityAgainstReference(p.t, env)
	for _, r := range env.Running() {
		if r.Start+r.Job.Estimate <= env.Now() {
			p.overrun++
			break
		}
	}
}

func (p *srptProbe) Arrive(env sim.Env, j *job.Job) {
	p.inspect(env)
	p.Composite.Arrive(env, j)
	p.inspect(env)
}

func (p *srptProbe) Complete(env sim.Env, j *job.Job) {
	p.inspect(env)
	p.Composite.Complete(env, j)
	p.inspect(env)
}

func (p *srptProbe) Wake(env sim.Env) {
	p.inspect(env)
	p.Composite.Wake(env)
	p.inspect(env)
}

// TestAvailabilityUnderSRPTPreemption: preemption removes a victim's hold
// mid-run and its remainder re-enters with a fresh one; together with
// underestimated jobs overrunning, the profile must still match the
// reference at every pass.
func TestAvailabilityUnderSRPTPreemption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var jobs []*job.Job
	submit := int64(0)
	for i := 1; i <= 120; i++ {
		submit += rng.Int63n(40)
		runtime := 5 + rng.Int63n(600)
		est := runtime + rng.Int63n(200)
		if i%3 == 0 {
			est = 1 + runtime/(2+rng.Int63n(4)) // overruns
		}
		jobs = append(jobs, &job.Job{ID: job.ID(i), User: 1 + i%7, Submit: submit,
			Runtime: runtime, Estimate: est, Nodes: 1 + rng.Intn(8)})
	}
	probe := &srptProbe{Composite: sched.MustParse("srpt"), t: t}
	cfg := sim.Config{SystemSize: 16, Kill: sim.KillNever, Preemptable: true, Validate: true}
	res, err := sim.New(cfg, probe).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	preempted := 0
	for _, r := range res.Records {
		if r.Preempted {
			preempted++
		}
	}
	if preempted < 5 || probe.overrun < 20 {
		t.Fatalf("workload too tame: %d preemptions, %d overrun inspections", preempted, probe.overrun)
	}
	t.Logf("%d preemptions, %d overrun inspections", preempted, probe.overrun)
}
