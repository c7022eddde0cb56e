package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"fairsched/internal/job"
	"fairsched/internal/sim"
)

// dryEnv is a live environment whose free nodes the test charges by hand,
// so a guard can admit candidates without starting them.
type dryEnv struct {
	sim.Env
	free int
}

func (d *dryEnv) FreeNodes() int { return d.free }

// admitted runs a fresh guard for a k-reservation pass over cands, in
// order, and returns the ids it admits.
func admitted(ref *aggressiveEngine, env sim.Env, reserved []*job.Job, k int, cands []*job.Job) []job.ID {
	dry := &dryEnv{Env: env, free: env.FreeNodes()}
	g := ref.newGuard(dry, reserved, k)
	var out []job.ID
	for _, c := range cands {
		if g.admit(c) {
			dry.free -= c.Nodes
			out = append(out, c.ID)
		}
	}
	return out
}

// guardProbe compares the guard rules at every event whose live queue has
// a blocked head: the shadow rule (k = 1) against the profile rule holding
// the same single reservation (k = 2 with one reserved job), and the
// reservation-free rule (k = 0) against plain first fit.
type guardProbe struct {
	sim.BaseObserver
	pol *Composite
	// ref owns the scratch profile of the profile rule, apart from the
	// policy's own (which may hold a pass's reservations mid-event).
	ref     aggressiveEngine
	checked int
	err     error
}

func (p *guardProbe) check(env sim.Env) {
	q := p.pol.Queued()
	if p.err != nil || len(q) == 0 || q[0].Nodes <= env.FreeNodes() {
		return
	}
	p.checked++
	shadow := admitted(&p.ref, env, q[:1], 1, q[1:])
	prof := admitted(&p.ref, env, q[:1], 2, q[1:])
	if !slices.Equal(shadow, prof) {
		p.err = fmt.Errorf("t=%d head %d: shadow rule admits %v, profile rule %v", env.Now(), q[0].ID, shadow, prof)
		return
	}
	var fit []job.ID
	free := env.FreeNodes()
	for _, c := range q {
		if c.Nodes <= free {
			free -= c.Nodes
			fit = append(fit, c.ID)
		}
	}
	if none := admitted(&p.ref, env, nil, 0, q); !slices.Equal(none, fit) {
		p.err = fmt.Errorf("t=%d: k=0 admits %v, first fit %v", env.Now(), none, fit)
	}
}

func (p *guardProbe) JobArrived(env sim.Env, _ *job.Job, _ []*job.Job) { p.check(env) }
func (p *guardProbe) JobCompleted(env sim.Env, _ *job.Job, _ int64)    { p.check(env) }

// JobStarted also checks that the engine removed j from its queue before
// starting it, head or backfilled.
func (p *guardProbe) JobStarted(env sim.Env, j *job.Job) {
	if p.err == nil && slices.Contains(p.pol.Queued(), j) {
		p.err = fmt.Errorf("t=%d: job %d still queued in its own JobStarted", env.Now(), j.ID)
	}
	p.check(env)
}

// guardSpecs drive the live queues the probe inspects: several orders,
// reservation counts and a starvation queue that fills within the run.
var guardSpecs = []string{
	"easy", "easy.sjf", "noguarantee", "depth2",
	"order=fairshare+bf=noguarantee+starve=10m.all+depth=2",
}

// checkSingleReservationGuards simulates a random workload from seed
// (imperfect estimates, so jobs overrun and back off) and returns the
// first guard disagreement, with the number of blocked-head events seen.
func checkSingleReservationGuards(seed int64) (int, error) {
	rng := rand.New(rand.NewSource(seed))
	size := rng.Intn(29) + 4
	jobs := make([]*job.Job, rng.Intn(56)+5)
	for i := range jobs {
		runtime := rng.Int63n(500) + 1
		jobs[i] = &job.Job{
			ID:       job.ID(i + 1),
			User:     rng.Intn(5) + 1,
			Submit:   rng.Int63n(2000),
			Runtime:  runtime,
			Estimate: max(1, runtime*rng.Int63n(4)/2), // 1 s or 0.5x, 1x, 1.5x the runtime
			Nodes:    rng.Intn(size) + 1,
		}
	}
	pol := MustParse(guardSpecs[rng.Intn(len(guardSpecs))])
	probe := &guardProbe{pol: pol, ref: aggressiveEngine{comp: &Composite{}}}
	kill := sim.KillPolicy(rng.Intn(3))
	if _, err := sim.New(sim.Config{SystemSize: size, Kill: kill, Validate: true}, pol, probe).Run(jobs); err != nil {
		return probe.checked, err
	}
	return probe.checked, probe.err
}

// TestSingleReservationGuardsAgree is the differential behind the guard's
// rule choice: with one reservation, the shadow rule read off the shared
// availability profile admits exactly the candidates, in order, that the
// scratch-profile rule does; with none, exactly the first-fit candidates.
func TestSingleReservationGuardsAgree(t *testing.T) {
	checked := 0
	f := func(seed int64) bool {
		n, err := checkSingleReservationGuards(seed)
		checked += n
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
		}
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d blocked-head events compared", checked)
	if checked == 0 {
		t.Fatal("no event had a blocked head; the workloads are too light")
	}
}

// FuzzSingleReservationGuard runs the same differential on fuzzed seeds.
func FuzzSingleReservationGuard(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, -3} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if _, err := checkSingleReservationGuards(seed); err != nil {
			t.Fatal(err)
		}
	})
}
