// Package profile implements the capacity-over-time timeline ("2D chart" in
// the paper's terminology) that backs every reservation-based scheduler:
// conservative backfilling, dynamic-reservation conservative backfilling and
// the aggressive head-of-queue reservation of the starvation queue.
//
// A Profile tracks the number of free nodes as a step function of time via a
// sorted slice of breakpoints. Occupying an interval subtracts capacity;
// releasing adds it back. EarliestFit finds the first start time at which a
// job's rectangle fits entirely, which is exactly the "hole" search of
// backfilling.
package profile

import (
	"fmt"
	"sort"
)

// Horizon is the pseudo-infinite end of time for open-ended queries. All
// simulation times are far below it.
const Horizon = int64(1) << 60

type breakpoint struct {
	t    int64 // free applies on [t, next.t)
	free int
}

// Profile is a free-capacity step function over [origin, +inf). The zero
// value is not usable; construct with New.
type Profile struct {
	size int // system size; free capacity beyond the last breakpoint
	bps  []breakpoint
}

// New creates a profile with `free` nodes available from origin onwards out
// of a system of `size` nodes. Typically free == size and running jobs are
// then added with Occupy.
func New(origin int64, free, size int) *Profile {
	if free > size {
		free = size
	}
	p := &Profile{size: size}
	p.bps = append(p.bps, breakpoint{t: origin, free: free})
	if free != size {
		// Unless told otherwise, capacity returns to full at the horizon;
		// callers model running jobs explicitly instead of relying on this.
		p.bps = append(p.bps, breakpoint{t: Horizon, free: size})
	}
	return p
}

// CopyFrom makes p a deep copy of src, reusing p's breakpoint backing array.
// The allocation-free equivalent of src.Clone() for reused scratch profiles.
func (p *Profile) CopyFrom(src *Profile) {
	p.size = src.size
	p.bps = append(p.bps[:0], src.bps...)
}

// TrimBefore advances the profile's origin to t, dropping the breakpoints
// strictly before the segment containing t. Capacity at every time >= t is
// unchanged; only queries at or after the new origin remain meaningful. A
// long-lived profile (the conservative engine's revalidation cache) calls
// this to shed dead history, which would otherwise grow every structural
// mutation's insertion cost without bound. Times before the current origin
// are a no-op, and the compaction only runs once enough dead breakpoints
// accumulate to pay for the copy.
func (p *Profile) TrimBefore(t int64) {
	const deadSlack = 32
	i := sort.Search(len(p.bps), func(i int) bool { return p.bps[i].t > t })
	// The segment containing t starts at i-1; everything before it is dead.
	if i-1 < deadSlack {
		return
	}
	kept := copy(p.bps, p.bps[i-1:])
	p.bps = p.bps[:kept]
	if p.bps[0].t < t {
		p.bps[0].t = t
	}
}

// Size returns the system size.
func (p *Profile) Size() int { return p.size }

// Origin returns the first breakpoint time.
func (p *Profile) Origin() int64 { return p.bps[0].t }

// Clone returns a deep copy.
func (p *Profile) Clone() *Profile {
	q := &Profile{size: p.size}
	q.bps = append([]breakpoint(nil), p.bps...)
	return q
}

// FreeAt returns the free capacity at time t. Times before the origin report
// the origin's capacity.
func (p *Profile) FreeAt(t int64) int {
	i := sort.Search(len(p.bps), func(i int) bool { return p.bps[i].t > t })
	if i == 0 {
		return p.bps[0].free
	}
	return p.bps[i-1].free
}

// ensureBreak makes sure a breakpoint exists exactly at t and returns its
// index. t must be >= origin.
func (p *Profile) ensureBreak(t int64) int {
	i := sort.Search(len(p.bps), func(i int) bool { return p.bps[i].t >= t })
	if i < len(p.bps) && p.bps[i].t == t {
		return i
	}
	// Insert a breakpoint carrying the capacity of the segment containing t.
	var free int
	if i == 0 {
		free = p.bps[0].free
	} else {
		free = p.bps[i-1].free
	}
	p.bps = append(p.bps, breakpoint{})
	copy(p.bps[i+1:], p.bps[i:])
	p.bps[i] = breakpoint{t: t, free: free}
	return i
}

// Occupy subtracts nodes of capacity on [from, to). It returns an error if
// the interval is empty/inverted, starts before the origin, or would drive
// capacity negative anywhere (callers reserve only into verified holes).
func (p *Profile) Occupy(from, to int64, nodes int) error {
	return p.adjust(from, to, -nodes)
}

// Release adds nodes of capacity back on [from, to); the inverse of Occupy.
// Capacity may not exceed the system size anywhere.
func (p *Profile) Release(from, to int64, nodes int) error {
	return p.adjust(from, to, +nodes)
}

func (p *Profile) adjust(from, to int64, delta int) error {
	if to <= from {
		return fmt.Errorf("profile: empty interval [%d,%d)", from, to)
	}
	if from < p.Origin() {
		return fmt.Errorf("profile: interval start %d before origin %d", from, p.Origin())
	}
	if delta == 0 {
		return nil
	}
	i := p.ensureBreak(from)
	j := p.ensureBreak(to)
	for k := i; k < j; k++ {
		nf := p.bps[k].free + delta
		if nf < 0 || nf > p.size {
			at := p.bps[k].t
			// Drop the breakpoints ensureBreak may have inserted: they are
			// redundant (equal capacities) and the profile must be
			// structurally unchanged after a rejected adjustment.
			p.mergeAt(j)
			p.mergeAt(i)
			if nf < 0 {
				return fmt.Errorf("profile: capacity would go negative (%d) at t=%d", nf, at)
			}
			return fmt.Errorf("profile: capacity %d would exceed size %d at t=%d", nf, p.size, at)
		}
	}
	for k := i; k < j; k++ {
		p.bps[k].free += delta
	}
	// The profile was coalesced before the edit. Inside [i, j) every
	// segment moved by the same delta and outside it nothing moved, so only
	// the range's two edges can now repeat their predecessor's capacity.
	p.mergeAt(j)
	p.mergeAt(i)
	return nil
}

// mergeAt drops breakpoint k when it carries the same capacity as its
// predecessor. Callers merge the higher index first so the lower one stays
// valid.
func (p *Profile) mergeAt(k int) {
	if k == 0 || p.bps[k].free != p.bps[k-1].free {
		return
	}
	p.bps = append(p.bps[:k], p.bps[k+1:]...)
}

// Hold is one running job's claim on capacity, the input to ResetHolds:
// Nodes busy from the profile's origin until At. ID is the caller's tag
// for the hold (the simulator stores the job id); the profile ignores it.
type Hold struct {
	At    int64
	Nodes int
	ID    int64
}

// ResetHolds reinitializes the profile in place, reusing the breakpoint
// backing array, to a `size`-node machine from origin onwards with every
// hold occupying its nodes on [origin, At). The result equals
// New(origin, size, size) followed by one Occupy(origin, h.At, h.Nodes) per
// hold, but it is built in one linear sweep over holds, which must be
// sorted by At. It returns an error and leaves the profile unchanged when
// a hold ends at or before origin, has a negative node count or is out of
// order, or when the holds total more than size nodes.
func (p *Profile) ResetHolds(origin int64, size int, holds []Hold) error {
	busy := 0
	for k, h := range holds {
		switch {
		case h.At <= origin:
			return fmt.Errorf("profile: hold %d ends at %d, not after origin %d", h.ID, h.At, origin)
		case h.Nodes < 0:
			return fmt.Errorf("profile: hold %d has negative node count %d", h.ID, h.Nodes)
		case k > 0 && h.At < holds[k-1].At:
			return fmt.Errorf("profile: hold %d at %d sorted after %d", h.ID, h.At, holds[k-1].At)
		}
		busy += h.Nodes
	}
	if busy > size {
		return fmt.Errorf("profile: holds occupy %d nodes of %d", busy, size)
	}
	p.size = size
	p.bps = append(p.bps[:0], breakpoint{t: origin, free: size - busy})
	for _, h := range holds {
		if h.Nodes == 0 {
			continue
		}
		last := &p.bps[len(p.bps)-1]
		if last.t == h.At {
			last.free += h.Nodes
			continue
		}
		p.bps = append(p.bps, breakpoint{t: h.At, free: last.free + h.Nodes})
	}
	return nil
}

// EarliestFit returns the earliest time s >= after at which `nodes` nodes
// are continuously free for `dur` seconds. It always succeeds because
// capacity returns to a steady level after the final breakpoint; if that
// steady level is below nodes, ok is false.
func (p *Profile) EarliestFit(after, dur int64, nodes int) (s int64, ok bool) {
	if nodes <= 0 || dur <= 0 {
		return after, nodes <= p.size
	}
	if nodes > p.size {
		return 0, false
	}
	if after < p.Origin() {
		after = p.Origin()
	}
	// Candidate start s; scan forward, restarting s at the first breakpoint
	// that violates the capacity requirement within [s, s+dur).
	i := sort.Search(len(p.bps), func(i int) bool { return p.bps[i].t > after })
	if i > 0 {
		i--
	}
	s = after
	if p.bps[i].t > s {
		s = p.bps[i].t
	}
	for {
		// Check capacity over [s, s+dur).
		end := s + dur
		k := i
		// Advance k to the segment containing s.
		for k+1 < len(p.bps) && p.bps[k+1].t <= s {
			k++
		}
		violated := false
		for {
			if p.bps[k].free < nodes {
				// Restart after this segment.
				if k+1 >= len(p.bps) {
					return 0, false // steady tail lacks capacity
				}
				s = p.bps[k+1].t
				i = k + 1
				violated = true
				break
			}
			if k+1 >= len(p.bps) || p.bps[k+1].t >= end {
				break // window fully checked
			}
			k++
		}
		if !violated {
			return s, true
		}
	}
}

// SteadyFree returns the capacity after the last breakpoint.
func (p *Profile) SteadyFree() int { return p.bps[len(p.bps)-1].free }

// Breakpoints returns a copy of the timeline as (time, free) pairs, for
// tests and diagnostics.
func (p *Profile) Breakpoints() (times []int64, free []int) {
	for _, bp := range p.bps {
		times = append(times, bp.t)
		free = append(free, bp.free)
	}
	return
}

// CheckInvariants verifies structural invariants (sorted strictly increasing
// times, capacities within [0,size], coalesced); tests call it after
// mutation sequences.
func (p *Profile) CheckInvariants() error {
	if len(p.bps) == 0 {
		return fmt.Errorf("profile: no breakpoints")
	}
	for i, bp := range p.bps {
		if bp.free < 0 || bp.free > p.size {
			return fmt.Errorf("profile: capacity %d out of range at index %d", bp.free, i)
		}
		if i > 0 {
			if bp.t <= p.bps[i-1].t {
				return fmt.Errorf("profile: non-increasing time at index %d", i)
			}
			if bp.free == p.bps[i-1].free {
				return fmt.Errorf("profile: uncoalesced equal capacities at index %d", i)
			}
		}
	}
	return nil
}
