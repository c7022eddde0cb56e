package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"fairsched/internal/core"
	"fairsched/internal/experiments"
	"fairsched/internal/job"
	"fairsched/internal/scenario"
	"fairsched/internal/sweep"
	"fairsched/internal/swf"
	"fairsched/internal/topology"
	"fairsched/internal/tracecache"
	"fairsched/internal/workload"
)

// A workload builds its inputs from a seed and runs one pass over them:
// every policy run and the rendered report. pass calls the program's own
// entry points; tracedPass replays them with each layer wrapped (wrap.go) and
// must render the same report.
type workloadDef struct {
	name string
	// runs is the number of policy runs in one pass.
	runs  int
	setup func(seed int64, workDir string) (inputs, error)
}

type inputs interface {
	pass(w io.Writer) (*passResult, error)
	tracedPass(rt *runTrace, w io.Writer) (*passResult, error)
	// digest identifies the generated inputs: equal seeds must give equal
	// digests.
	digest() string
}

// passResult is what a pass leaves for the output check.
type passResult struct {
	runs    []*core.Run          // flat runs with their records
	cells   []*sweep.CellSummary // campaign cells
	results *experiments.Results // the paper study, for its claims
}

var workloads = []workloadDef{
	{name: "paper-study", runs: 9, setup: setupPaperStudy},
	{name: "pop-contended", runs: 3, setup: setupPopContended},
	{name: "topo-campaign", runs: 12, setup: setupTopoCampaign},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// ---- paper-study: the nine paper policies over the calibrated trace ----

type paperStudy struct {
	study core.StudyConfig
	jobs  []*job.Job
}

func setupPaperStudy(seed int64, _ string) (inputs, error) {
	jobs, err := workload.Generate(workload.Config{Seed: baseSeed, SystemSize: 1000})
	if err != nil {
		return nil, err
	}
	return &paperStudy{study: core.StudyConfig{SystemSize: 1000}, jobs: perturb(jobs, seed)}, nil
}

func (p *paperStudy) pass(w io.Writer) (*passResult, error) {
	res, err := experiments.RunOnParallel(p.study, p.jobs, 1)
	if err != nil {
		return nil, err
	}
	experiments.WriteReport(w, res, 0)
	return &passResult{runs: res.Runs, results: res}, nil
}

func (p *paperStudy) tracedPass(rt *runTrace, w io.Writer) (*passResult, error) {
	res, err := tracedRunOn(rt, p.study, p.jobs, 1)
	if err != nil {
		return nil, err
	}
	rt.enter("experiments.render")
	experiments.WriteReport(w, res, 0)
	rt.exit()
	return &passResult{runs: res.Runs, results: res}, nil
}

func (p *paperStudy) digest() string { return jobsDigest(p.jobs) }

// ---- pop-contended: a 10^5-user population under load ----

const (
	popScenario = "pop=users:100k,jobs:40k,cohorts:8+load=1.5+slo=p50:2h,default:24h"
	popSLO      = "slo=p50:2h,default:24h"
)

var popPolicies = []string{"easy", "list.fairshare", "srpt"}

type popContended struct {
	campaign sweep.Campaign
	jobs     []*job.Job
}

// setupPopContended generates the population and applies the load scaling;
// the pass applies only the SLO tags, which rank users of the final jobs.
func setupPopContended(seed int64, _ string) (inputs, error) {
	full, err := scenario.Parse(popScenario)
	if err != nil {
		return nil, err
	}
	jobs, err := full.Apply(nil, baseSeed)
	if err != nil {
		return nil, err
	}
	jobs = perturb(jobs, seed)
	tags, err := scenario.Parse(popSLO)
	if err != nil {
		return nil, err
	}
	specs, err := parseSpecs(popPolicies)
	if err != nil {
		return nil, err
	}
	return &popContended{
		jobs: jobs,
		campaign: sweep.Campaign{
			Sources:   []scenario.Source{scenario.Jobs("pop-contended", jobs, 1000)},
			Scenarios: []scenario.Scenario{tags},
			Seeds:     []int64{seed},
			Specs:     specs,
			Study:     core.StudyConfig{SystemSize: 1000},
			Parallel:  1,
		},
	}, nil
}

func (p *popContended) pass(w io.Writer) (*passResult, error) {
	cells, err := p.campaign.Run()
	if err != nil {
		return nil, err
	}
	experiments.RenderCampaign(w, cells)
	return &passResult{cells: cells}, nil
}

func (p *popContended) tracedPass(rt *runTrace, w io.Writer) (*passResult, error) {
	cells, err := tracedCampaign(rt, p.campaign)
	if err != nil {
		return nil, err
	}
	rt.enter("experiments.render")
	experiments.RenderCampaign(w, cells)
	rt.exit()
	return &passResult{cells: cells}, nil
}

func (p *popContended) digest() string { return jobsDigest(p.jobs) }

// ---- topo-campaign: a warm-cache manifest campaign on two partitions ----

const topoSpec = "part=a:500,part=b:500,queue=org/x:part=a:guar=2,queue=org/y:part=b:order=fairshare+bf=easy"

var (
	topoScenarios = []string{
		"queue=p50:org/x,default:org/y",
		"queue=p50:org/x,default:org/y+load=1.3+slo=p50:30m,default:4h",
	}
	topoPolicies = []string{"easy", "cplant24.nomax.all"}
)

type topoCampaign struct {
	manifest string
	cacheDir string
	seed     int64
	scens    []scenario.Scenario
	specs    []core.Spec
	topo     *topology.Topology
	sums     []string // SHA-256 of each generated SWF file
}

// setupTopoCampaign writes three generated SWF traces and their manifest,
// then builds the binary trace cache cold.
func setupTopoCampaign(seed int64, workDir string) (inputs, error) {
	dir := filepath.Join(workDir, "topo-campaign")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	t := &topoCampaign{
		manifest: filepath.Join(dir, "traces.toml"),
		cacheDir: filepath.Join(dir, "cache"),
		seed:     seed,
	}
	var manifest bytes.Buffer
	for i := int64(0); i < 3; i++ {
		jobs, err := workload.Generate(workload.Config{Seed: baseSeed + i, SystemSize: 500, Users: 256})
		if err != nil {
			return nil, err
		}
		jobs = perturb(jobs, seed*3+i)
		trace := swf.FromJobs(jobs, swf.Header{
			Version:       2,
			Computer:      "Sandia CPlant/Ross (synthetic reproduction)",
			MaxNodes:      500,
			MaxProcs:      500,
			UnixStartTime: 1038700800,
			TimeZone:      "UTC",
			Note:          []string{fmt.Sprintf("Generated by workloadgen seed=%d scale=1, perturbed with seed %d", baseSeed+i, seed*3+i)},
		})
		var buf bytes.Buffer
		if err := swf.Write(&buf, trace); err != nil {
			return nil, err
		}
		name := fmt.Sprintf("trace-%d", i+1)
		if err := os.WriteFile(filepath.Join(dir, name+".swf"), buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
		sum := sha256.Sum256(buf.Bytes())
		t.sums = append(t.sums, hex.EncodeToString(sum[:]))
		fmt.Fprintf(&manifest, "[trace.%s]\npath = %q\nsha256 = %q\n\n", name, name+".swf", t.sums[i])
	}
	if err := os.WriteFile(t.manifest, manifest.Bytes(), 0o644); err != nil {
		return nil, err
	}
	m, err := tracecache.LoadManifest(t.manifest)
	if err != nil {
		return nil, err
	}
	for _, e := range m.Entries {
		if _, _, _, err := tracecache.Ensure(t.cacheDir, m.ResolvePath(e), swf.ConvertOptions{KeepCancelled: e.KeepCancelled}, e.SHA256); err != nil {
			return nil, err
		}
	}
	for _, s := range topoScenarios {
		scen, err := scenario.Parse(s)
		if err != nil {
			return nil, err
		}
		t.scens = append(t.scens, scen)
	}
	if t.specs, err = parseSpecs(topoPolicies); err != nil {
		return nil, err
	}
	if t.topo, err = topology.Parse(topoSpec); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *topoCampaign) campaign(m *tracecache.Manifest) sweep.Campaign {
	return sweep.Campaign{
		// Fresh sources each pass, so every pass loads the cache warm.
		Sources:   scenario.ManifestSources(m, m.Entries, t.cacheDir),
		Scenarios: t.scens,
		Seeds:     []int64{t.seed},
		Specs:     t.specs,
		Study:     core.StudyConfig{Topology: t.topo},
		Parallel:  2,
	}
}

func (t *topoCampaign) pass(w io.Writer) (*passResult, error) {
	m, err := tracecache.LoadManifest(t.manifest)
	if err != nil {
		return nil, err
	}
	cells, err := t.campaign(m).Run()
	if err != nil {
		return nil, err
	}
	experiments.RenderCampaign(w, cells)
	return &passResult{cells: cells}, nil
}

func (t *topoCampaign) tracedPass(rt *runTrace, w io.Writer) (*passResult, error) {
	rt.enter("scenario.load")
	m, err := tracecache.LoadManifest(t.manifest)
	rt.exit()
	if err != nil {
		return nil, err
	}
	cells, err := tracedCampaign(rt, t.campaign(m))
	if err != nil {
		return nil, err
	}
	rt.enter("experiments.render")
	experiments.RenderCampaign(w, cells)
	rt.exit()
	return &passResult{cells: cells}, nil
}

func (t *topoCampaign) digest() string {
	h := sha256.New()
	for _, s := range t.sums {
		io.WriteString(h, s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ---- shared helpers ----

func parseSpecs(keys []string) ([]core.Spec, error) {
	specs := make([]core.Spec, len(keys))
	for i, k := range keys {
		s, err := core.SpecByKey(k)
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	return specs, nil
}

// jobsDigest hashes every field of a job slice that a scheduler reads.
func jobsDigest(jobs []*job.Job) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, j := range jobs {
		put(int64(j.ID))
		put(j.Submit)
		put(j.Runtime)
		put(j.Estimate)
		put(int64(j.Nodes))
		put(int64(j.User))
		put(int64(j.Group))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkPass verifies what a pass produced beyond its report: every run is
// present, and every flat run's schedule is feasible.
func checkPass(wl workloadDef, res *passResult) error {
	switch {
	case res.runs != nil:
		if len(res.runs) != wl.runs {
			return fmt.Errorf("%d runs, want %d", len(res.runs), wl.runs)
		}
		for _, r := range res.runs {
			if err := checkSchedule(r); err != nil {
				return fmt.Errorf("%s: %w", r.Spec.Key, err)
			}
		}
	case res.cells != nil:
		n := 0
		for i, c := range res.cells {
			if c == nil {
				return fmt.Errorf("cell %d failed", i+1)
			}
			for k, s := range c.Summaries {
				if s == nil || s.Jobs < c.Jobs || !(s.Utilization > 0 && s.Utilization <= 1+1e-9) {
					return fmt.Errorf("cell %d policy %s: implausible summary", i+1, c.Policies[k])
				}
				n++
			}
		}
		if n != wl.runs {
			return fmt.Errorf("%d runs, want %d", n, wl.runs)
		}
	default:
		return errors.New("pass produced no runs")
	}
	return nil
}

// checkSchedule verifies a run's records independently of the simulator:
// every job started and finished, no job started before it was submitted or
// ended before it started, and the nodes in use never exceeded the machine.
func checkSchedule(r *core.Run) error {
	res := r.Result
	type event struct {
		at    int64
		delta int
	}
	events := make([]event, 0, 2*len(res.Records))
	for _, rec := range res.Records {
		switch {
		case !rec.Started || !rec.Finished:
			return fmt.Errorf("job %d never ran to completion", rec.Job.ID)
		case rec.Start < rec.Submit || rec.Complete < rec.Start:
			return fmt.Errorf("job %d: submit %d, start %d, complete %d", rec.Job.ID, rec.Submit, rec.Start, rec.Complete)
		}
		if rec.Complete > rec.Start {
			events = append(events, event{rec.Start, rec.Job.Nodes}, event{rec.Complete, -rec.Job.Nodes})
		}
	}
	sort.Slice(events, func(i, k int) bool {
		if events[i].at != events[k].at {
			return events[i].at < events[k].at
		}
		return events[i].delta < events[k].delta
	})
	used := 0
	for _, e := range events {
		used += e.delta
		if used > res.SystemSize {
			return fmt.Errorf("%d nodes in use at %d on a %d-node machine", used, e.at, res.SystemSize)
		}
	}
	return nil
}
