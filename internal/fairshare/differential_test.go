package fairshare

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// refTracker is the pre-userdex reference implementation: the identical
// lazy-decay ledger on a plain Go map. The paged-index Tracker is a pure
// layout change, so every observable value must match it bit for bit
// (DESIGN.md §10, §15).
type refTracker struct {
	cfg   Config
	epoch int64
	now   int64
	usage map[int]decayedUsage
	gen   int64
}

func newRefTracker(cfg Config, epoch int64) *refTracker {
	return &refTracker{cfg: cfg.withDefaults(), epoch: epoch, now: epoch, usage: make(map[int]decayedUsage)}
}

func (t *refTracker) settled(user int) (float64, bool) {
	e, ok := t.usage[user]
	if !ok {
		return 0, false
	}
	v := e.v
	for g := e.gen; g < t.gen; g++ {
		v *= t.cfg.DecayFactor
		if v < 1e-9 {
			delete(t.usage, user)
			return 0, false
		}
	}
	t.usage[user] = decayedUsage{v: v, gen: t.gen}
	return v, true
}

func (t *refTracker) charge(user int, procSeconds float64) {
	v, _ := t.settled(user)
	t.usage[user] = decayedUsage{v: v + procSeconds, gen: t.gen}
}

func (t *refTracker) accrue(now int64, running []Usage) {
	perUser := make(map[int]int)
	for _, u := range running {
		perUser[u.User] += u.Nodes
	}
	for t.now < now {
		k := (t.now - t.epoch) / t.cfg.DecayInterval
		next := t.epoch + k*t.cfg.DecayInterval
		for next <= t.now {
			next += t.cfg.DecayInterval
		}
		end := now
		atBoundary := false
		if next <= now {
			end = next
			atBoundary = true
		}
		dt := float64(end - t.now)
		if dt > 0 {
			for user, n := range perUser {
				if n != 0 {
					t.charge(user, float64(n)*dt)
				}
			}
		}
		t.now = end
		if atBoundary {
			t.gen++
		}
	}
}

func (t *refTracker) snapshot() map[int]float64 {
	out := make(map[int]float64, len(t.usage))
	for u := range t.usage {
		if v, ok := t.settled(u); ok {
			out[u] = v
		}
	}
	return out
}

// TestTrackerMatchesMapReference drives the paged-index Tracker and the
// map-based reference through identical random op sequences — 30 seeds
// across three contention shapes, mirroring the scheduler cache suite —
// and requires bit-identical usage at every read and snapshot. "split"
// exercises the sparse fallback with user ids beyond the dense range.
func TestTrackerMatchesMapReference(t *testing.T) {
	shapes := []struct {
		name     string
		users    int
		sparseID bool // mix in ids outside the dense page range
		maxStep  int64
	}{
		{"calm", 8, false, 4 * 3600},
		{"contended", 300, false, 30 * 60},
		{"split", 50, true, 12 * 3600},
	}
	for _, sh := range shapes {
		for seed := int64(0); seed < 30; seed++ {
			rng := rand.New(rand.NewSource(seed*131 + int64(sh.users)))
			cfg := Config{DecayFactor: 0.5, DecayInterval: 24 * 3600}
			if seed%3 == 1 {
				cfg = Config{DecayFactor: 0.9, DecayInterval: 3600}
			}
			epoch := int64(0)
			if seed%2 == 1 {
				epoch = -rng.Int63n(cfg.DecayInterval)
			}
			tr := NewTracker(cfg, epoch)
			ref := newRefTracker(cfg, epoch)
			userID := func() int {
				u := rng.Intn(sh.users)
				if sh.sparseID && u%5 == 0 {
					return 1<<27 + u // beyond DenseCap: sparse fallback
				}
				return u * 37
			}
			now := epoch
			for op := 0; op < 150; op++ {
				switch rng.Intn(5) {
				case 0: // direct charge
					u := userID()
					ps := float64(rng.Intn(100000)) / 3
					tr.Charge(u, ps)
					ref.charge(u, ps)
				case 1, 2: // accrue with repeated-user streams
					var running []Usage
					for i := rng.Intn(12); i > 0; i-- {
						running = append(running, Usage{User: userID(), Nodes: rng.Intn(64) + 1})
					}
					now += rng.Int63n(sh.maxStep) + 1
					if err := tr.Accrue(now, running); err != nil {
						t.Fatal(err)
					}
					ref.accrue(now, running)
				case 3: // point read
					u := userID()
					if got, want := tr.Usage(u), func() float64 { v, _ := ref.settled(u); return v }(); got != want {
						t.Fatalf("%s seed %d op %d: Usage(%d) = %v, reference %v", sh.name, seed, op, u, got, want)
					}
				case 4: // full snapshot
					got, want := tr.Snapshot(), ref.snapshot()
					if len(got) != len(want) {
						t.Fatalf("%s seed %d op %d: snapshot has %d users, reference %d", sh.name, seed, op, len(got), len(want))
					}
					for u, v := range want {
						if got[u] != v {
							t.Fatalf("%s seed %d op %d: snapshot[%d] = %v, reference %v", sh.name, seed, op, u, got[u], v)
						}
					}
				}
			}
			// Final settle-everything comparison, including the Users list.
			got, want := tr.Snapshot(), ref.snapshot()
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: final snapshot %d users, reference %d", sh.name, seed, len(got), len(want))
			}
			for u, v := range want {
				if got[u] != v {
					t.Fatalf("%s seed %d: final snapshot[%d] = %v, reference %v", sh.name, seed, u, got[u], v)
				}
			}
			users := tr.Users()
			if len(users) != len(want) {
				t.Fatalf("%s seed %d: Users() has %d entries, snapshot %d", sh.name, seed, len(users), len(want))
			}
			for _, u := range users {
				if _, ok := want[u]; !ok {
					t.Fatalf("%s seed %d: Users() lists %d, absent from reference", sh.name, seed, u)
				}
			}
		}
	}
}

// benchTracker charges n users once: the benchmarks' fixture.
func benchTracker(n int) *Tracker {
	tr := NewTracker(DefaultConfig(), 0)
	for u := 0; u < n; u++ {
		tr.Charge(u, float64(u%977)+1)
	}
	return tr
}

func BenchmarkSnapshotMap(b *testing.B) {
	tr := benchTracker(100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tr.Snapshot()
	}
}

func BenchmarkAppendSnapshot(b *testing.B) {
	tr := benchTracker(100_000)
	buf := tr.AppendSnapshot(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = tr.AppendSnapshot(buf)
	}
}

// BenchmarkTrackerBytesPerUser reports the tracker's retained heap per
// charged user (B/user) as the population grows: the per-user index cost
// the paged layout bounds (DESIGN.md §15).
func BenchmarkTrackerBytesPerUser(b *testing.B) {
	for _, users := range []int{640, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("users%d", users), func(b *testing.B) {
			var perUser float64
			for i := 0; i < b.N; i++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				tr := benchTracker(users)
				runtime.GC()
				runtime.ReadMemStats(&after)
				perUser = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(users)
				runtime.KeepAlive(tr)
			}
			b.ReportMetric(perUser, "B/user")
		})
	}
}
