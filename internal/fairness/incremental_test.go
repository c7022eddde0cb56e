package fairness

import (
	"fmt"
	"math/rand"
	"testing"

	"fairsched/internal/fairshare"
	"fairsched/internal/job"
	"fairsched/internal/profile"
	"fairsched/internal/sched"
	"fairsched/internal/sim"
	"fairsched/internal/workload"
)

// referenceFST is the pre-incremental hybrid engine: at every arrival it
// re-sorts the whole queue through the tracker and rebuilds the
// availability multiset from env.Running(). It is the executable spec the
// incremental engine must match FST-for-FST (DESIGN.md §10).
type referenceFST struct {
	sim.BaseObserver
	fst map[job.ID]int64
}

func newReferenceFST() *referenceFST {
	return &referenceFST{fst: make(map[job.ID]int64)}
}

func (h *referenceFST) JobArrived(env sim.Env, j *job.Job, queued []*job.Job) {
	if j.Segment > 1 {
		return
	}
	order := make([]*job.Job, 0, len(queued)+1)
	for _, q := range queued {
		if q.Segment > 1 {
			continue
		}
		order = append(order, q)
	}
	order = append(order, j)
	env.Fairshare().SortJobs(order)

	avail := newAvailability(env.Now(), env.FreeNodes(), env.Running())
	for _, q := range order {
		start, err := avail.allocate(q.Nodes, q.EffectiveRuntime())
		if err != nil {
			panic(fmt.Sprintf("fairness: reference FST: %v", err))
		}
		if q.ID == j.ID {
			h.fst[j.ID] = start
			return
		}
	}
}

// TestHybridFSTMatchesFromScratchReference: the incremental engine's FST
// table must equal the from-scratch reference's, entry for entry, on calm
// and contended generated workloads across representative policies —
// including checkpoint chains (max-runtime splitting) and wall-clock kills,
// which exercise the multiset's remove path with promised release times
// that were never reached.
func TestHybridFSTMatchesFromScratchReference(t *testing.T) {
	type cfg struct {
		name   string
		sim    sim.Config
		scale  float64
		policy string
	}
	h := int64(3600)
	cases := []cfg{
		{"calm-baseline", sim.Config{SystemSize: 500, Validate: true}, 0.02, "cplant24.nomax.all"},
		{"contended-baseline", sim.Config{SystemSize: 100, Validate: true}, 0.05, "cplant24.nomax.all"},
		{"contended-cons", sim.Config{SystemSize: 100, Validate: true}, 0.05, "cons.nomax"},
		{"contended-consdyn", sim.Config{SystemSize: 100, Validate: true}, 0.05, "consdyn.nomax"},
		{"contended-list", sim.Config{SystemSize: 100, Validate: true}, 0.05, "list.fairshare"},
		{"split-chains", sim.Config{SystemSize: 100, MaxRuntime: 24 * h, Split: sim.SplitChained, Validate: true}, 0.05, "cplant24.72max.all"},
		{"split-upfront", sim.Config{SystemSize: 100, MaxRuntime: 24 * h, Split: sim.SplitUpfront, Validate: true}, 0.05, "cplant24.72max.all"},
		{"kill-always", sim.Config{SystemSize: 100, Kill: sim.KillAlways, Validate: true}, 0.05, "easy.fairshare"},
		{"kill-when-needed", sim.Config{SystemSize: 100, Kill: sim.KillWhenNeeded, Validate: true}, 0.05, "cplant24.nomax.fair"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jobs, err := workload.Generate(workload.Config{Seed: 7, Scale: tc.scale, SystemSize: tc.sim.SystemSize})
			if err != nil {
				t.Fatal(err)
			}
			inc := NewHybridFST()
			ref := newReferenceFST()
			if _, err := sim.New(tc.sim, sched.MustParse(tc.policy), inc, ref).Run(jobs); err != nil {
				t.Fatal(err)
			}
			if len(inc.fst) == 0 {
				t.Fatal("no FSTs recorded")
			}
			if len(inc.fst) != len(ref.fst) {
				t.Fatalf("incremental recorded %d FSTs, reference %d", len(inc.fst), len(ref.fst))
			}
			for id, want := range ref.fst {
				if got, ok := inc.fst[id]; !ok || got != want {
					t.Fatalf("job %d: incremental FST %d (ok=%v), reference %d", id, got, ok, want)
				}
			}
		})
	}
}

// TestHybridFSTMatchesReferenceRandomized sweeps random small workloads
// with mixed over/underestimates through both engines.
func TestHybridFSTMatchesReferenceRandomized(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
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
				User:     rng.Intn(5) + 1,
				Submit:   rng.Int63n(2000),
				Runtime:  runtime,
				Estimate: est,
				Nodes:    rng.Intn(size) + 1,
			}
		}
		inc := NewHybridFST()
		ref := newReferenceFST()
		pol := sched.MustParse("cplant24.nomax.all")
		if _, err := sim.New(sim.Config{SystemSize: size, Validate: true}, pol, inc, ref).Run(jobs); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for id, want := range ref.fst {
			if got := inc.fst[id]; got != want {
				t.Fatalf("seed %d job %d: incremental %d != reference %d", seed, id, got, want)
			}
		}
	}
}

// probeEnv is a minimal sim.Env for driving the hybrid engine standalone:
// a contended system (every node claimed by staggered running jobs) with a
// deep queue, so one JobArrived exercises the full reference list schedule.
type probeEnv struct {
	now        int64
	systemSize int
	free       int
	running    []sim.RunningJob
	fs         *fairshare.Tracker
}

func (e *probeEnv) Now() int64                     { return e.now }
func (e *probeEnv) SystemSize() int                { return e.systemSize }
func (e *probeEnv) FreeNodes() int                 { return e.free }
func (e *probeEnv) Running() []sim.RunningJob      { return e.running }
func (e *probeEnv) Fairshare() *fairshare.Tracker  { return e.fs }
func (e *probeEnv) Availability() *profile.Profile { return nil } // unused by the engine
func (e *probeEnv) Start(*job.Job) error           { return nil } // the probe never starts jobs

// NewArrivalProbe assembles a hybrid engine against a synthetic contended
// state: `running` jobs occupying the whole machine with staggered
// completions and `queued` jobs from users with distinct decayed usages.
// Probe.Arrive replays one arrival of the probe job — the engine's entire
// steady-state hot path.
func NewArrivalProbe(queued, running int) *ArrivalProbe {
	const systemSize = 1024
	env := &probeEnv{systemSize: systemSize, now: 1 << 20}
	env.fs = fairshare.NewTracker(fairshare.DefaultConfig(), 0)
	if running < 1 {
		running = 1
	}
	nodes := systemSize / running
	if nodes < 1 {
		nodes = 1
	}
	h := NewHybridFST()
	id := job.ID(1)
	for i := 0; i < running; i++ {
		n := nodes
		if i == running-1 {
			n = systemSize - nodes*(running-1) // absorb the remainder
		}
		// Staggered completions: each running job frees its nodes at a
		// distinct future instant, so the availability multiset stays deep.
		j := &job.Job{ID: id, User: i, Submit: 0, Runtime: int64(3600 + 60*i), Estimate: 7200, Nodes: n}
		env.running = append(env.running, sim.RunningJob{Job: j, Start: env.now})
		h.JobStarted(env, j)
		id++
	}
	p := &ArrivalProbe{env: env, engine: h}
	for i := 0; i < queued; i++ {
		env.fs.Charge(1000+i, float64(i)*97.0)
		p.queue = append(p.queue, &job.Job{
			ID: id, User: 1000 + i, Submit: int64(i), Runtime: 1800, Estimate: 3600,
			Nodes: 1 + i%64,
		})
		id++
	}
	p.arriving = &job.Job{
		ID: id, User: 1000 + queued/2, Submit: env.now, Runtime: 1800, Estimate: 3600,
		Nodes: 32,
	}
	return p
}

// ArrivalProbe replays the hybrid engine's per-arrival hot path against a
// fixed contended state.
type ArrivalProbe struct {
	env      *probeEnv
	engine   *HybridFST
	queue    []*job.Job
	arriving *job.Job
}

// Arrive runs one JobArrived against the probe state.
func (p *ArrivalProbe) Arrive() {
	delete(p.engine.fst, p.arriving.ID) // keep the table size fixed across replays
	p.engine.JobArrived(p.env, p.arriving, p.queue)
}

// BenchmarkHybridFST measures the engine's per-arrival hot path on a
// contended state: a fully occupied 1024-node machine with a deep queue.
// The op is one JobArrived — steady state must be allocation-free.
func BenchmarkHybridFST(b *testing.B) {
	for _, depth := range []int{16, 128, 512} {
		b.Run(fmt.Sprintf("queue%d", depth), func(b *testing.B) {
			p := NewArrivalProbe(depth, 64)
			p.Arrive() // warm the scratch buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Arrive()
			}
		})
	}
}

// BenchmarkHybridFSTReference is the pre-incremental algorithm on the same
// state, for the measurement-plane before/after in docs/PERFORMANCE.md.
func BenchmarkHybridFSTReference(b *testing.B) {
	for _, depth := range []int{16, 128, 512} {
		b.Run(fmt.Sprintf("queue%d", depth), func(b *testing.B) {
			p := NewArrivalProbe(depth, 64)
			ref := newReferenceFST()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				delete(ref.fst, p.arriving.ID)
				ref.JobArrived(p.env, p.arriving, p.queue)
			}
		})
	}
}
