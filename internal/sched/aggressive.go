package sched

import (
	"fmt"
	"math"
	"slices"

	"fairsched/internal/job"
	"fairsched/internal/profile"
	"fairsched/internal/sim"
)

// aggressiveEngine is the aggressive backfill family — the disciplines
// whose reservations (if any) are rebuilt from the running jobs at every
// scheduling event. Every member runs the same reserve-then-backfill pass
// (backfill) and differs only in k, the number of main-queue jobs it
// reserves:
//
//   - noguarantee, k = 0: any main-queue job that fits starts, in queue
//     order, with no reservations (CPlant §2.1);
//   - easy, k = 1: only the blocked main-queue head holds a reservation
//     (Lifka's EASY, Figure 2 semantics);
//   - depth, k = N: the first N main-queue heads hold reservations (the
//     spectrum between aggressive and conservative backfilling).
//
// The optional starvation component composes with noguarantee and easy: a
// job queued longer than the threshold moves to an FCFS starvation queue
// whose first reserve-depth heads hold reservations; while starved jobs
// exist they own the reservation set and every other job (starvation-queue
// tail first, then the main queue in queue order) may start only where it
// delays none of them.
type aggressiveEngine struct {
	comp   *Composite
	order  Order
	k      int // main-queue reservations: 0 noguarantee, 1 easy, N depth
	starve *starvation

	main    []*job.Job
	starved []*job.Job
	// qBuf is the reused queued() buffer (callers must not retain it).
	qBuf []*job.Job
}

func (e *aggressiveEngine) reset() { e.main, e.starved = nil, nil }

func (e *aggressiveEngine) arrive(env sim.Env, j *job.Job) {
	e.main = append(e.main, j)
	e.schedule(env)
}

func (e *aggressiveEngine) complete(env sim.Env, _ *job.Job) { e.schedule(env) }

// nextWake is the next starvation-promotion instant.
func (e *aggressiveEngine) nextWake(now int64) (int64, bool) {
	if e.starve == nil {
		return 0, false
	}
	return e.starve.nextPromotion(now, e.main)
}

// queued returns the starvation queue first, then the main queue, in a
// reused buffer (sim.Policy.Queued callers must not retain the slice).
func (e *aggressiveEngine) queued() []*job.Job {
	if e.starve == nil {
		return e.main
	}
	e.qBuf = append(append(e.qBuf[:0], e.starved...), e.main...)
	return e.qBuf
}

func (e *aggressiveEngine) schedule(env sim.Env) {
	if e.starve != nil {
		e.main, e.starved = e.starve.promote(env, e.main, e.starved)
		// Starved heads start before the main queue is sorted: a start can
		// move what an order reads (edf's breach-risk signal).
		startHeads(env, &e.starved)
	}
	sortQueue(env, e.order, e.main)
	if len(e.starved) == 0 {
		e.backfill(env, &e.main, e.k, nil)
		return
	}
	e.backfill(env, &e.starved, e.starve.depth, &e.main)
}

// backfill is the family's one scheduling pass. It starts q's heads while
// they fit, reserves q's next k jobs, then starts every later job of q, and
// then every job of rest (nil for none), that delays none of the
// reservations.
func (e *aggressiveEngine) backfill(env sim.Env, q *[]*job.Job, k int, rest *[]*job.Job) {
	startHeads(env, q)
	if len(*q) == 0 && rest == nil {
		return // nothing to reserve or backfill: skip the guard's set-up
	}
	n := min(k, len(*q))
	g := e.newGuard(env, (*q)[:n], k)
	g.startAdmitted(q, n)
	if rest != nil {
		g.startAdmitted(rest, 0)
	}
}

// guard admits the backfill candidates of one pass: a candidate may start
// now only if it fits the free nodes and delays none of the pass's
// reservations. It picks its rule from the reservation count k alone:
//
//   - k <= 1, the shadow rule: the reservation (if any) starts at resAt,
//     read straight off the shared availability profile, and a candidate
//     must end by resAt or fit in shadow, the nodes still spare then
//     (k = 0 means resAt = +∞);
//   - k >= 2, the profile rule: the reservations sit in the composite's
//     scratch copy of the shared profile, and a candidate's rectangle must
//     fit it starting now.
//
// For one reservation the rules decide alike: the shared profile only
// gains capacity over time, so a candidate squeezes the reservation
// hardest at resAt, where the profile rule's check is the shadow rule's.
// TestSingleReservationGuardsAgree checks this differentially.
type guard struct {
	env    sim.Env
	now    int64
	resAt  int64
	shadow int
	prof   *profile.Profile // nil on the shadow rule
}

// newGuard reserves the jobs of reserved, in order, for a k-reservation
// pass.
func (e *aggressiveEngine) newGuard(env sim.Env, reserved []*job.Job, k int) guard {
	g := guard{env: env, now: env.Now(), resAt: math.MaxInt64}
	if k <= 1 {
		if len(reserved) == 1 {
			g.resAt, g.shadow = reservation(env, reserved[0].Nodes)
		}
		return g
	}
	g.prof = e.comp.scratchFrom(env)
	for _, r := range reserved {
		reserve(g.prof, g.now, r)
	}
	return g
}

// reserve places r in prof at its earliest fit and returns the start.
func reserve(prof *profile.Profile, now int64, r *job.Job) int64 {
	s, ok := prof.EarliestFit(now, r.Estimate, r.Nodes)
	if !ok {
		panic(fmt.Sprintf("sched: reservation impossible for %v", r))
	}
	if err := prof.Occupy(s, s+r.Estimate, r.Nodes); err != nil {
		panic(fmt.Sprintf("sched: reserve: %v", err))
	}
	return s
}

// admit reports whether c may start now and, if so, charges it against
// the reservations.
func (g *guard) admit(c *job.Job) bool {
	if c.Nodes > g.env.FreeNodes() {
		return false
	}
	end := g.now + c.Estimate
	if g.prof != nil {
		if s, ok := g.prof.EarliestFit(g.now, c.Estimate, c.Nodes); !ok || s != g.now {
			return false
		}
		if err := g.prof.Occupy(g.now, end, c.Nodes); err != nil {
			panic(fmt.Sprintf("sched: backfill: %v", err))
		}
		return true
	}
	if end > g.resAt {
		if c.Nodes > g.shadow {
			return false
		}
		g.shadow -= c.Nodes
	}
	return true
}

// startAdmitted starts, in queue order, every job of (*q)[from:] the guard
// admits. Each leaves the queue before it starts, so observers reading
// Queued() from JobStarted see the queue without it.
func (g *guard) startAdmitted(q *[]*job.Job, from int) {
	for i := from; i < len(*q); {
		c := (*q)[i]
		if !g.admit(c) {
			i++
			continue
		}
		*q = slices.Delete(*q, i, i+1) // also clears the vacated tail slot
		mustStart(g.env, c)
	}
}

// depthReservations computes the reservation starts a fresh depth-mode
// scheduling pass would place (tests and diagnostics). It works on its own
// profile copy, NOT the composite's scratch: observers may call it from
// inside a scheduling pass (env.Start fires JobStarted synchronously while
// the engine still holds reservations in the scratch profile), and
// clobbering the scratch mid-pass would corrupt the pass.
func (e *aggressiveEngine) depthReservations(env sim.Env) map[job.ID]int64 {
	now := env.Now()
	prof := env.Availability().Clone()
	q := append([]*job.Job(nil), e.main...)
	sortQueue(env, e.order, q)
	depth := min(e.k, len(q))
	out := make(map[job.ID]int64, depth)
	for _, r := range q[:depth] {
		out[r.ID] = reserve(prof, now, r)
	}
	return out
}
