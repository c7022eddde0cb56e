package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"
	"testing"

	"fairsched/internal/job"
	"fairsched/internal/scenario"
	"fairsched/internal/sched"
	"fairsched/internal/sim"
	"fairsched/internal/topology"
	"fairsched/internal/workload"
)

// topologyGolden pins the multi-partition path the way registryGolden pins
// the flat one: every builtin a topology admits runs on two partitions —
// "open", with no declared queues, and "tree", a two-leaf queue tree with
// a per-leaf policy override — under an SLO assignment, for every kill
// mode (and split mode for the max= entries); bf=conservative sits out
// (see the loop). The hash covers the merged
// records, event count, FST table and per-queue and per-partition rows
// (see topologyHash).
var topologyGolden = map[string]string{
	"consdyn.72max":          "6834027322bdadcc24d4238c34413f8f48c7283bc9711dcba8eb0ffc88043983",
	"consdyn.lxf":            "d682a4f2924ac444d51609c5c72793d63c0671c8f00161cb8b73fde0b00605fc",
	"consdyn.nomax":          "19968325840b1b6dce0a96510893fe299a31e391e45f8433463fd35433c1a11c",
	"consdyn.sjf":            "18ff5483c5ce53111013193aee6eedbf178f0d88e8252d3440c9a283bb04ec01",
	"cplant24.72max.all":     "a376f90e7923f5337119b6af29bfd931e0f7d18ed06084e13e5459a6f260d730",
	"cplant24.depth2":        "d7a6f89aebdb4aedffb6e8c1f92a458b554dcaa0c2f1ad0f3fcb91be7a6b9068",
	"cplant24.lxf":           "aad8e7b6fa1b9486e9767eeaccc6e7357e312a224da3fa095b82e52649404926",
	"cplant24.nomax.abs280h": "796318435b10ed12abfc4c02a7527d400da795e2e208ea0edc47dd76bfa801b9",
	"cplant24.nomax.all":     "aab5855d5e81d34f7e643a670228c62040cc9be9717f094a9c2eaf26e6f0273d",
	"cplant24.nomax.fair":    "daa2102e76fa70327a02cf8eeeff119274a2a59b3eabde7b0099138bc56fcba0",
	"cplant24.nomax.q75":     "ecf6e3f576157c585f5450e16bdb16e0eade2d54fd6d767e34d5baf4fce0e61f",
	"cplant24.sjf":           "aad8e7b6fa1b9486e9767eeaccc6e7357e312a224da3fa095b82e52649404926",
	"cplant72.72max.fair":    "9ec434d0749b1b5020b84c56c78d3e4fc538dfef9343260dd58efd95eaa1a288",
	"cplant72.nomax.all":     "13ac8bb229d7db7651842db745735e0bbc288b3698b9cafbedd22438d420f8a7",
	"depth2":                 "bda35ba1b6d2e5bd229639a9ca3ecefc132ffb77c8f5d0f8020ee8c43676cb28",
	"depth4":                 "0e9716c5a0f0df4c5aa1b80d9406672c0243eafdf267134b3f6ad2cad6da6bfc",
	"depth8":                 "712a16d6bc123668b4c935dcf1b8b2a63116c04c8d419d8626ebcdaaf0bb3438",
	"depth8.fcfs":            "ad9575857bd48ba5d0764eb92d8ffda1c709a70c0af09f3d2828cc588b85370c",
	"easy":                   "2970179a025862b62c20663b80901e9233c6bd955e3ce6f1fd83a3720b2428c5",
	"easy.fairshare":         "bce7b227e867a968df68da4636ee720f95c5f52916152618aa61beffd40f62a0",
	"easy.lxf":               "2b9d0c71306853db352462b4b745e8cf1563af715d475f0b5af9f0d4818229bb",
	"easy.narrowest":         "8aa7aeaa1521e3f5ca044bf88397d6ec9adb58e5bcc87e8031bc8ff8da10c9df",
	"easy.sjf":               "83a77c80a8502771e3ff8ece3b9b7747e785f071c0b34a6ee1dbe21302705c2e",
	"easy.starve24":          "abca145132c04624db24fc5cfc7d9b12468a488fd161768b754691c4d3a2dcc0",
	"easy.widest":            "a1b48f2a444e8deada992cc1a3efecf5f3081c3d5d8bd97b93ca77522f7cbf2e",
	"fcfs":                   "cdba26c31477a8cdf503fb6f031c9e00fe5c9ca455d526d4451fde4c142a791f",
	"list.fairshare":         "ead0e3815fc1060a25496937496cc485ee142bcea7224823e8ee92c0be5f669b",
	"list.lxf":               "940bcb08e2b2b7e25565e8a7df31c33959d902ccb69caf2792320d8d798f1ad1",
	"list.sjf":               "1ce2b2f00e44f5109a87c89d9bf70db9035d920243c41c130c94b83b378c206f",
	"noguarantee":            "abd7c8adce6629e42b57a527617b3e5ba494f1f5a5e84be11e30e391e1f64908",
}

// topologyHash is scheduleHash over a partitioned run: besides records and
// events it folds in the merged FST table (id order) and every per-queue
// and per-partition row, floats by their bits.
func topologyHash(t *testing.T, spec sched.Spec, cfg StudyConfig, jobs []*job.Job) string {
	t.Helper()
	splits := []sim.SplitMode{sim.SplitUpfront}
	if spec.MaxRuntime > 0 {
		splits = append(splits, sim.SplitStaggered, sim.SplitChained)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	putF := func(f float64) { put(int64(math.Float64bits(f))) }
	for _, kill := range []sim.KillPolicy{sim.KillNever, sim.KillWhenNeeded, sim.KillAlways} {
		for _, split := range splits {
			cfg.Kill, cfg.Split = kill, split
			run, err := Execute(cfg, spec, jobs)
			if err != nil {
				t.Fatalf("%s kill=%v split=%v: %v", spec.Key, kill, split, err)
			}
			for _, r := range run.Result.Records {
				put(int64(r.Job.ID))
				put(r.Start)
				put(r.Complete)
			}
			put(run.Result.Events)
			ids := make([]job.ID, 0, len(run.FST))
			for id := range run.FST {
				ids = append(ids, id)
			}
			sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
			for _, id := range ids {
				put(int64(id))
				put(run.FST[id])
			}
			for _, q := range run.Summary.Queues {
				h.Write([]byte(q.Path))
				put(int64(q.Jobs))
				put(int64(q.Users))
				putF(q.AvgWait)
				putF(q.AvgTurnaround)
				put(int64(q.SLOJobs))
				put(int64(q.SLOAttained))
			}
			for _, p := range run.Summary.Partitions {
				h.Write([]byte(p.Name))
				put(int64(p.Nodes))
				put(int64(p.Jobs))
				putF(p.AvgWait)
				putF(p.AvgTurnaround)
				putF(p.Utilization)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTopologySchedulesGolden is the registry × kill × split matrix on a
// two-partition machine with Validate on. Users are placed by user%3: the
// queueless partition, then each leaf of the tree.
func TestTopologySchedulesGolden(t *testing.T) {
	jobs, err := workload.Generate(workload.Config{Seed: 7, Scale: 0.05, SystemSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	// Cap widths at the smaller partition so every routing is feasible.
	for _, j := range jobs {
		if j.Nodes > 40 {
			j.Nodes = 40
		}
	}
	topo := topology.MustParse("part=open:60,part=tree:40," +
		"queue=org/a:part=tree:guar=2,queue=org/b:part=tree:sjf")
	var b topology.PlacementBuilder
	for _, j := range jobs {
		switch j.User % 3 {
		case 0:
			b.SetPartition(j.User, "open")
		case 1:
			b.SetQueue(j.User, "org/a")
		default:
			b.SetQueue(j.User, "org/b")
		}
	}
	tiers, err := scenario.Parse("slo=p50:30m,default:4h")
	if err != nil {
		t.Fatal(err)
	}
	targets, err := tiers.SLOAssignment(jobs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := StudyConfig{SystemSize: 100, Validate: true, Topology: topo, Placement: b.Build(), SLO: targets}
	// The rows the hash folds in must exist and account for every job: one
	// per leaf of the tree, one per partition.
	fcfs, err := SpecByKey("fcfs")
	if err != nil {
		t.Fatal(err)
	}
	run, err := Execute(cfg, fcfs, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Summary.Queues) != 2 || len(run.Summary.Partitions) != 2 {
		t.Fatalf("%d queue rows and %d partition rows, want 2 and 2", len(run.Summary.Queues), len(run.Summary.Partitions))
	}
	covered := run.Summary.Partitions[0].Jobs
	for _, q := range run.Summary.Queues {
		covered += q.Jobs
	}
	if covered != len(run.Result.Records) {
		t.Errorf("rows cover %d jobs, run has %d records", covered, len(run.Result.Records))
	}
	admitted := 0
	for _, bi := range sched.Builtins() {
		if bi.PreemptTrigger != "" || bi.Order == "edf" {
			continue // refused under a topology (TestTopologyRejects)
		}
		if bi.Backfill == sched.BackfillConservative {
			// A bf=conservative leaf keeps its reservations while its
			// sibling leaf starts jobs on the same nodes, so the reserved
			// start later finds the nodes taken and the engine panics.
			continue
		}
		admitted++
		t.Run(bi.Key, func(t *testing.T) {
			t.Parallel()
			got := topologyHash(t, bi.Spec, cfg, jobs)
			if want, ok := topologyGolden[bi.Key]; !ok || got != want {
				t.Errorf("schedule hash changed; recorded %q, now:\n\t%q: %q,", want, bi.Key, got)
			}
		})
	}
	if len(topologyGolden) != admitted {
		t.Errorf("topologyGolden has %d entries for %d admitted builtins", len(topologyGolden), admitted)
	}
}
