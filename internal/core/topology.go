package core

import (
	"fmt"
	"sort"

	"fairsched/internal/fairness"
	"fairsched/internal/job"
	"fairsched/internal/metrics"
	"fairsched/internal/sched"
	"fairsched/internal/sim"
	"fairsched/internal/slo"
	"fairsched/internal/topology"
)

// refuseUnderTopology rejects what a partitioned machine cannot run: the
// equality observer models one flat machine, and preemption and order=edf
// need the flat loop's requeue path and per-run SLO context.
func refuseUnderTopology(cfg StudyConfig, spec Spec) error {
	if cfg.Equality {
		return fmt.Errorf("core: the resource-equality observer is not supported with a topology (it models one flat machine)")
	}
	if spec.PreemptTrigger != "" {
		return fmt.Errorf("core: %s: checkpoint preemption is not supported with a topology (partition loops have no requeue path)", spec.String())
	}
	if spec.Order == "edf" {
		return fmt.Errorf("core: %s: order=edf is not supported with a topology (partition loops carry no per-run SLO context)", spec.String())
	}
	if err := cfg.Topology.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// routing is a run's split of the workload over its partitions.
type routing struct {
	// Per partition: the queue tree (nil: no declared queues, the spec runs
	// directly), the routed jobs, each user's leaf index and the first
	// split-segment id (0: the simulator's default).
	queues    [][]sched.QueueConfig
	workloads [][]*job.Job
	leafOf    []map[int]int
	firstSeg  []job.ID
	// paths are the per-queue report rows; queueOf maps a user to one.
	paths   []string
	queueOf func(user int) (string, bool)
}

// route splits the workload over the partitions. The flat machine (nil
// Topology) routes nothing: its one loop takes the whole workload, and
// queue tags only group report rows. Under a topology a queue tag names a
// declared leaf (implying its partition); a bare partition tag lands on the
// partition's first leaf (or on the spec itself when it declares no
// queues); untagged users land on the default partition. Routing is per
// user, so checkpoint chains never span partitions.
func route(cfg StudyConfig, spec Spec, parts []topology.Partition, workload []*job.Job) (*routing, error) {
	if cfg.Topology == nil {
		return &routing{
			queues:    make([][]sched.QueueConfig, 1),
			workloads: [][]*job.Job{workload},
			leafOf:    make([]map[int]int, 1),
			firstSeg:  make([]job.ID, 1),
			paths:     cfg.Placement.QueuePaths(),
			queueOf:   cfg.Placement.Queue,
		}, nil
	}
	topo := cfg.Topology
	rt := &routing{
		queues:    make([][]sched.QueueConfig, len(parts)),
		workloads: make([][]*job.Job, len(parts)),
		leafOf:    make([]map[int]int, len(parts)),
		firstSeg:  make([]job.ID, len(parts)),
	}
	partIdx := make(map[string]int, len(parts))
	for i, p := range parts {
		partIdx[p.Name] = i
	}

	// Per-partition queue trees. Declared leaves without a policy inherit
	// the cell's spec.
	inherited := spec
	leavesByPart := make([][]topology.QueueNode, len(parts))
	leafIdx := make(map[string]int, len(topo.Queues))  // leaf path -> index in its partition
	leafPart := make(map[string]int, len(topo.Queues)) // leaf path -> partition index
	for i, p := range parts {
		leavesByPart[i] = topo.LeavesFor(p.Name)
		if len(leavesByPart[i]) == 0 {
			continue
		}
		k := 0
		for _, q := range topo.Queues {
			if topo.PartitionOf(q) != p.Name {
				continue
			}
			qc := sched.QueueConfig{Path: q.Path, Guarantee: q.Guarantee, Cap: q.Cap}
			if k < len(leavesByPart[i]) && leavesByPart[i][k].Path == q.Path {
				// This declared node is a leaf: it carries a scheduler.
				qc.Spec = q.Policy
				if qc.Spec == nil {
					qc.Spec = &inherited
				}
				leafIdx[q.Path] = k
				leafPart[q.Path] = i
				k++
			}
			rt.queues[i] = append(rt.queues[i], qc)
		}
	}

	type place struct{ part, leaf int }
	placeOf := make(map[int]place)
	queueOf := make(map[int]string) // user -> leaf path ("" = no declared queues)
	resolve := func(user int) (place, error) {
		if pl, ok := placeOf[user]; ok {
			return pl, nil
		}
		pl := place{}
		if qpath, ok := cfg.Placement.Queue(user); ok {
			li, declared := leafIdx[qpath]
			if !declared {
				return pl, fmt.Errorf("core: user %d is tagged with queue %q, which is not a declared leaf of the topology", user, qpath)
			}
			pl = place{part: leafPart[qpath], leaf: li}
		} else if pname, ok := cfg.Placement.PartitionTag(user); ok {
			pi, declared := partIdx[pname]
			if !declared {
				return pl, fmt.Errorf("core: user %d is tagged with partition %q, which the topology does not declare", user, pname)
			}
			pl = place{part: pi}
		}
		placeOf[user] = pl
		if ls := leavesByPart[pl.part]; len(ls) > 0 {
			queueOf[user] = ls[pl.leaf].Path
		} else {
			queueOf[user] = ""
		}
		return pl, nil
	}
	var globalMaxID job.ID
	for _, j := range workload {
		if j.ID > globalMaxID {
			globalMaxID = j.ID
		}
		pl, err := resolve(j.User)
		if err != nil {
			return nil, err
		}
		rt.workloads[pl.part] = append(rt.workloads[pl.part], j)
		if rt.leafOf[pl.part] == nil {
			rt.leafOf[pl.part] = make(map[int]int)
		}
		rt.leafOf[pl.part][j.User] = pl.leaf
	}

	// Carve disjoint contiguous split-segment id ranges, so merged records
	// and FST tables cannot collide across partitions (and each loop's
	// dense record index stays dense).
	next := globalMaxID + 1
	for i := range parts {
		rt.firstSeg[i] = next
		next += job.ID(sim.SegmentIDBudget(rt.workloads[i], spec.MaxRuntime))
	}

	// Per-queue rows for every declared leaf (path order); partitions with
	// no declared queues contribute no row.
	for _, q := range topo.Leaves() {
		rt.paths = append(rt.paths, q.Path)
	}
	rt.queueOf = func(user int) (string, bool) {
		q, ok := queueOf[user]
		return q, ok && q != ""
	}
	return rt, nil
}

// partitionLoop is one partition's event loop, the observers the run reads
// back, and afterwards its result.
type partitionLoop struct {
	sim *sim.Simulator
	col *metrics.Collector
	fst *fairness.HybridFST
	slo *fairness.SLOObserver
	res *sim.Result
}

// mergeLoops folds the partition loops into one run: records re-sorted on
// the global (submit, id) order, spans and event counts combined,
// collectors, FST tables and SLO trackers folded in declaration order. The
// merge of one loop is the identity, so its pieces come back as they are.
// The FST table is nil with SkipFST, the tracker without an SLO assignment.
func mergeLoops(cfg StudyConfig, spec Spec, parts []topology.Partition, loops []partitionLoop) (*sim.Result, *metrics.Collector, map[job.ID]int64, *slo.Tracker) {
	if len(loops) == 1 {
		l := loops[0]
		var fst map[job.ID]int64
		if l.fst != nil {
			fst = l.fst.Table()
		}
		var tracker *slo.Tracker
		if l.slo != nil {
			tracker = l.slo.Tracker()
		}
		return l.res, l.col, fst, tracker
	}
	totalNodes := 0
	for _, p := range parts {
		totalNodes += p.Nodes
	}
	merged := &sim.Result{Policy: spec.String(), SystemSize: totalNodes}
	col := metrics.NewCollector(totalNodes)
	var fst map[job.ID]int64
	if !cfg.SkipFST {
		fst = make(map[job.ID]int64)
	}
	var tracker *slo.Tracker
	if cfg.SLO.NumUsers() > 0 {
		tracker = slo.NewTracker(cfg.SLO)
	}
	sawSpan := false
	for _, l := range loops {
		col.Merge(l.col)
		if l.fst != nil {
			for id, t := range l.fst.Table() {
				fst[id] = t
			}
		}
		if l.slo != nil {
			tracker.Merge(l.slo.Tracker())
		}
		r := l.res
		merged.Records = append(merged.Records, r.Records...)
		merged.Events += r.Events
		if len(r.Records) == 0 {
			continue
		}
		if !sawSpan {
			merged.FirstStart, merged.LastCompletion, sawSpan = r.FirstStart, r.LastCompletion, true
			continue
		}
		if r.FirstStart < merged.FirstStart {
			merged.FirstStart = r.FirstStart
		}
		if r.LastCompletion > merged.LastCompletion {
			merged.LastCompletion = r.LastCompletion
		}
	}
	sort.Slice(merged.Records, func(i, k int) bool {
		a, b := merged.Records[i], merged.Records[k]
		if a.Job.Submit != b.Job.Submit {
			return a.Job.Submit < b.Job.Submit
		}
		return a.Job.ID < b.Job.ID
	})
	if sawSpan {
		merged.Makespan = merged.LastCompletion - merged.FirstStart
	}
	return merged, col, fst, tracker
}

// queueSummaries groups records into per-queue report rows. queueOf maps a
// user to its queue path; unmapped users contribute to no row. perUser may
// be nil (no SLO assignment).
func queueSummaries(paths []string, queueOf func(user int) (string, bool), records []*sim.Record, perUser []slo.UserStats) []metrics.QueueSummary {
	rows := make([]metrics.QueueSummary, len(paths))
	idx := make(map[string]int, len(paths))
	for i, p := range paths {
		rows[i].Path = p
		idx[p] = i
	}
	users := make(map[int]int, 64) // user -> row index (and distinct-user count)
	sumWait := make([]float64, len(paths))
	sumTAT := make([]float64, len(paths))
	for _, r := range records {
		q, ok := queueOf(r.Job.User)
		if !ok {
			continue
		}
		i, declared := idx[q]
		if !declared {
			continue
		}
		if _, seen := users[r.Job.User]; !seen {
			users[r.Job.User] = i
			rows[i].Users++
		}
		rows[i].Jobs++
		sumWait[i] += float64(r.Wait())
		sumTAT[i] += float64(r.Turnaround())
	}
	for i := range rows {
		if rows[i].Jobs > 0 {
			n := float64(rows[i].Jobs)
			rows[i].AvgWait = sumWait[i] / n
			rows[i].AvgTurnaround = sumTAT[i] / n
		}
	}
	for _, u := range perUser {
		q, ok := queueOf(u.User)
		if !ok {
			continue
		}
		if i, declared := idx[q]; declared {
			rows[i].SLOJobs += u.Jobs
			rows[i].SLOAttained += u.Attained
		}
	}
	return rows
}

// partitionSummaries builds the per-partition report rows. Utilization is
// partition-local work over the merged makespan, so every row shares the
// run's time denominator.
func partitionSummaries(parts []topology.Partition, loops []partitionLoop, makespan int64) []metrics.PartitionSummary {
	rows := make([]metrics.PartitionSummary, len(parts))
	for i, p := range parts {
		r := loops[i].res
		row := metrics.PartitionSummary{Name: p.Name, Nodes: p.Nodes, Jobs: len(r.Records)}
		var sumWait, sumTAT, usedProcSec float64
		for _, rec := range r.Records {
			sumWait += float64(rec.Wait())
			sumTAT += float64(rec.Turnaround())
			usedProcSec += float64(rec.Job.Nodes) * float64(rec.Complete-rec.Start)
		}
		if row.Jobs > 0 {
			n := float64(row.Jobs)
			row.AvgWait = sumWait / n
			row.AvgTurnaround = sumTAT / n
		}
		if makespan > 0 && p.Nodes > 0 {
			row.Utilization = usedProcSec / (float64(makespan) * float64(p.Nodes))
		}
		rows[i] = row
	}
	return rows
}
