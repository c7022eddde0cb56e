package profile

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// coalesce merges every run of adjacent breakpoints with equal capacity in
// one full pass over the profile: the reference that adjust's edge-only
// merges are checked against.
func (p *Profile) coalesce() {
	out := p.bps[:1]
	for _, bp := range p.bps[1:] {
		if bp.free == out[len(out)-1].free {
			continue
		}
		out = append(out, bp)
	}
	p.bps = out
}

// referenceAdjust is adjust with the full-pass coalesce after every edit,
// rejected ones included.
func (p *Profile) referenceAdjust(from, to int64, delta int) error {
	if to <= from || from < p.Origin() {
		return errors.New("bad interval")
	}
	if delta == 0 {
		return nil
	}
	i := p.ensureBreak(from)
	j := p.ensureBreak(to)
	for k := i; k < j; k++ {
		if nf := p.bps[k].free + delta; nf < 0 || nf > p.size {
			p.coalesce()
			return errors.New("capacity out of range")
		}
	}
	for k := i; k < j; k++ {
		p.bps[k].free += delta
	}
	p.coalesce()
	return nil
}

func sameBreakpoints(a, b *Profile) bool {
	at, af := a.Breakpoints()
	bt, bf := b.Breakpoints()
	return slices.Equal(at, bt) && slices.Equal(af, bf)
}

// TestQuickEdgeCoalesceMatchesFullPass drives random Occupy/Release
// sequences, many of them rejected, through adjust and through the
// full-pass reference: both must accept the same edits and leave identical
// breakpoints, and a rejected edit must leave the profile as it was.
func TestQuickEdgeCoalesceMatchesFullPass(t *testing.T) {
	rejected := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 16
		origin := rng.Int63n(50)
		p := New(origin, size-rng.Intn(3), size) // sometimes a Horizon breakpoint
		ref := p.Clone()
		type iv struct {
			from, to int64
			n        int
		}
		var placed []iv
		for op := 0; op < 80; op++ {
			from := origin - 5 + rng.Int63n(300) // sometimes before origin
			to := from - 2 + rng.Int63n(80)      // sometimes empty or inverted
			n := rng.Intn(size/2) + 1
			release := rng.Intn(3) == 0
			if release && len(placed) > 0 && rng.Intn(2) == 0 {
				k := rng.Intn(len(placed))
				from, to, n = placed[k].from, placed[k].to, placed[k].n
				placed = slices.Delete(placed, k, k+1)
			}
			before := p.Clone()
			var err error
			delta := -n
			if release {
				err, delta = p.Release(from, to, n), n
			} else {
				err = p.Occupy(from, to, n)
			}
			refErr := ref.referenceAdjust(from, to, delta)
			if (err == nil) != (refErr == nil) {
				t.Logf("seed %d op %d: adjust err %v, reference err %v", seed, op, err, refErr)
				return false
			}
			if err != nil {
				rejected++
				if !sameBreakpoints(p, before) {
					t.Logf("seed %d op %d: rejected edit changed the profile", seed, op)
					return false
				}
			} else if !release {
				placed = append(placed, iv{from, to, n})
			}
			if !sameBreakpoints(p, ref) || p.CheckInvariants() != nil {
				t.Logf("seed %d op %d: breakpoints diverge from the reference", seed, op)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if rejected == 0 {
		t.Fatal("no edit was ever rejected")
	}
}

// TestQuickResetHoldsMatchesOccupyLoop checks ResetHolds against the loop
// it replaces, New followed by one Occupy per hold: the same breakpoints
// when the loop succeeds, an error (and an untouched profile) when it
// fails. Holds tie, carry zero nodes, overfill the machine and end at or
// before the origin.
func TestQuickResetHoldsMatchesOccupyLoop(t *testing.T) {
	var ok, overfull, early int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 8 + rng.Intn(24)
		origin := rng.Int63n(100)
		holds := make([]Hold, rng.Intn(12))
		for k := range holds {
			at := origin + 1 + rng.Int63n(20) // a narrow range makes ties
			if rng.Intn(25) == 0 {
				at = origin - rng.Int63n(3)
			}
			holds[k] = Hold{At: at, Nodes: rng.Intn(6), ID: int64(k)}
		}
		sort.SliceStable(holds, func(a, b int) bool { return holds[a].At < holds[b].At })

		want := New(origin, size, size)
		var wantErr error
		busy := 0
		for _, h := range holds {
			busy += h.Nodes
			if wantErr = want.Occupy(origin, h.At, h.Nodes); wantErr != nil {
				break
			}
		}
		// Reuse a profile holding something else, as the simulator does.
		got := New(0, 3, 5)
		_ = got.Occupy(7, 9, 1)
		before := got.Clone()
		err := got.ResetHolds(origin, size, holds)
		if (err == nil) != (wantErr == nil) {
			t.Logf("seed %d: ResetHolds err %v, Occupy loop err %v", seed, err, wantErr)
			return false
		}
		if err != nil {
			if busy > size {
				overfull++
			} else {
				early++
			}
			return sameBreakpoints(got, before) && got.Size() == before.Size()
		}
		ok++
		return sameBreakpoints(got, want) && got.Size() == size && got.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if ok == 0 || overfull == 0 || early == 0 {
		t.Fatalf("cases not all reached: %d built, %d over-full, %d early", ok, overfull, early)
	}
}

func TestResetHoldsRejectsMalformedHolds(t *testing.T) {
	var p Profile
	if err := p.ResetHolds(0, 10, []Hold{{At: 20, Nodes: 1}, {At: 10, Nodes: 1}}); err == nil {
		t.Error("unsorted holds accepted")
	}
	if err := p.ResetHolds(0, 10, []Hold{{At: 20, Nodes: -1}}); err == nil {
		t.Error("negative node count accepted")
	}
	if err := p.ResetHolds(5, 10, []Hold{{At: 5, Nodes: 0}}); err == nil {
		t.Error("zero-node hold ending at the origin accepted")
	}
	if err := p.ResetHolds(0, 10, nil); err != nil {
		t.Fatal(err)
	}
	if times, free := p.Breakpoints(); len(times) != 1 || times[0] != 0 || free[0] != 10 {
		t.Errorf("empty hold list gave %v/%v, want a full machine", times, free)
	}
}
