package profile

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickOccupyReleaseInvariants drives a random sequence of feasible
// occupations and verifies structural invariants plus exact restoration
// after releasing everything in reverse.
func TestQuickOccupyReleaseInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 64
		p := New(0, size, size)
		type iv struct {
			from, to int64
			n        int
		}
		var placed []iv
		for i := 0; i < 40; i++ {
			from := rng.Int63n(1000)
			to := from + 1 + rng.Int63n(200)
			n := rng.Intn(size) + 1
			if err := p.Occupy(from, to, n); err != nil {
				continue // infeasible; profile must be unchanged
			}
			placed = append(placed, iv{from, to, n})
			if p.CheckInvariants() != nil {
				return false
			}
		}
		for i := len(placed) - 1; i >= 0; i-- {
			if err := p.Release(placed[i].from, placed[i].to, placed[i].n); err != nil {
				return false
			}
		}
		times, free := p.Breakpoints()
		return len(times) == 1 && free[0] == size && p.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEarliestFitIsFeasibleAndMinimal verifies that the returned start
// really has capacity for the whole window, and that starting one second
// earlier would not (scanning from `after`).
func TestQuickEarliestFitIsFeasibleAndMinimal(t *testing.T) {
	feasible := func(p *Profile, s, dur int64, nodes int) bool {
		for t := s; t < s+dur; t++ {
			if p.FreeAt(t) < nodes {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 16
		p := New(0, size, size)
		for i := 0; i < 12; i++ {
			from := rng.Int63n(60)
			to := from + 1 + rng.Int63n(30)
			n := rng.Intn(size) + 1
			_ = p.Occupy(from, to, n) // infeasible ones are skipped internally
		}
		after := rng.Int63n(40)
		dur := rng.Int63n(20) + 1
		nodes := rng.Intn(size) + 1
		s, ok := p.EarliestFit(after, dur, nodes)
		if !ok {
			return false // full capacity returns eventually; must fit
		}
		if s < after {
			return false
		}
		if !feasible(p, s, dur, nodes) {
			return false
		}
		// Minimality: every candidate start in [after, s) must fail.
		for c := after; c < s; c++ {
			if feasible(p, c, dur, nodes) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickOccupyAtEarliestFitSucceeds confirms the find-then-reserve pair
// used by every reservation-based scheduler never fails.
func TestQuickOccupyAtEarliestFitSucceeds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 32
		p := New(0, size, size)
		for i := 0; i < 30; i++ {
			dur := rng.Int63n(50) + 1
			nodes := rng.Intn(size) + 1
			after := rng.Int63n(100)
			s, ok := p.EarliestFit(after, dur, nodes)
			if !ok {
				return false
			}
			if err := p.Occupy(s, s+dur, nodes); err != nil {
				return false
			}
		}
		return p.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
