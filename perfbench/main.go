// Command perfbench is fairsched's end-to-end benchmark. It generates one
// workload's inputs from a seed, then runs passes over them for a fixed
// time and prints the medians, with units, as a JSON object on its last
// line. Every pass's report is checked against the first pass's.
//
// With -trace 1 it alternates untraced passes with traced ones, which wrap
// the calls into each layer in spans (see wrap.go), and prints the
// per-layer metrics instead. See README.md for the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper-study --seed 42 --seconds 20 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"fairsched/internal/experiments"
	"fairsched/internal/sweep"
)

// A run builds its inputs at least minSetups times and until minSetupTime
// has passed, at most maxSetups times; setup_s is the median.
const (
	minSetups    = 5
	maxSetups    = 40
	minSetupTime = time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: paper-study, pop-contended or topo-campaign")
		seed    = flag.Int64("seed", 42, "seed the inputs are generated from")
		seconds = flag.Int("seconds", 20, "how long to run passes, in seconds")
		trace   = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		workDir = flag.String("work", filepath.Join(".bench_build", "work"), "directory for generated traces and span files")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the passes to this file")
	)
	flag.Parse()
	wl, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload {paper-study|pop-contended|topo-campaign} -seed N -seconds N>=1 -trace {0|1}\n")
		return 2
	}
	dir := filepath.Join(*workDir, fmt.Sprintf("%s-seed%d", wl.name, *seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	defer os.RemoveAll(filepath.Join(dir, "topo-campaign"))

	in, setupS, err := setup(wl, *seed, dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s setup: %v\n", wl.name, err)
		return 1
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	b := &bench{wl: wl, in: in, claims: -1, deadline: time.Now().Add(time.Duration(*seconds) * time.Second)}
	if *trace == 1 {
		b.traced(dir)
	} else {
		b.untraced()
	}

	out := result{Correct: b.failed == 0 && b.checkErr == nil, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	if *trace == 1 {
		for _, m := range layerMetrics {
			out.Metrics[m.name] = metric{median(b.layers[m.name]), m.unit}
		}
		overhead := 0.0
		if len(b.tracedWall) > 0 && len(b.wall) > 0 {
			overhead = median(b.tracedWall) - median(b.wall)
		}
		out.Metrics["trace.overhead_s"] = metric{overhead, "s"}
	} else {
		out.Metrics["wall_s"] = metric{median(b.wall), "s"}
		out.Metrics["setup_s"] = metric{setupS, "s"}
		out.Metrics["alloc_mb"] = metric{median(b.allocMB), "MB"}
		out.Metrics["peak_rss_mb"] = metric{median(b.rssMB), "MB"}
	}
	if b.checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check failed: %v\n", wl.name, b.checkErr)
	}
	fmt.Printf("workload %s, seed %d: %d untraced and %d traced passes\n", wl.name, *seed, len(b.wall), len(b.tracedWall))
	fmt.Printf("report_sha256 %s\n", b.reportSum)
	if b.claims >= 0 {
		fmt.Printf("claims_held %d of %d\n", b.claims, len(experiments.PaperHypotheses()))
	}
	fmt.Printf("fail_ratio %g (%d of %d runs)\n", float64(b.failed)/float64(max(b.attempted, 1)), b.failed, b.attempted)
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-22s %14.6f %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// setup builds the inputs repeatedly and returns the last inputs and the
// median time. Every repetition must give the same inputs.
func setup(wl workloadDef, seed int64, dir string) (inputs, float64, error) {
	var times []float64
	var in inputs
	digest := ""
	start := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(start) < minSetupTime); i++ {
		in = nil
		collect()
		t0 := time.Now()
		next, err := wl.setup(seed, dir)
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return nil, 0, err
		}
		in = next
		if d := in.digest(); digest == "" {
			digest = d
		} else if d != digest {
			return nil, 0, fmt.Errorf("seed %d gave different inputs on repetition %d", seed, i+1)
		}
	}
	return in, median(times), nil
}

// bench holds one run's measurements.
type bench struct {
	wl       workloadDef
	in       inputs
	deadline time.Time

	attempted, failed int
	checkErr          error
	reference         []byte // first pass's normalized report
	reportSum         string
	claims            int // paper claims that hold (-1: not evaluated)

	wall, allocMB, rssMB []float64
	tracedWall           []float64
	layers               map[string][]float64
}

func (b *bench) untraced() {
	for n := 0; n < 2 || time.Now().Before(b.deadline); n++ {
		b.measure(nil)
	}
}

// traced alternates untraced and traced passes, then writes the traced
// passes' spans as JSONL.
func (b *bench) traced(dir string) {
	b.layers = map[string][]float64{}
	var passes [][]Span
	for n := 0; n < 2 || time.Now().Before(b.deadline); n++ {
		b.measure(nil)
		t := newTracer()
		b.measure(t)
		passes = append(passes, t.spans)
	}
	if err := writeJSONL(filepath.Join(dir, "spans.jsonl"), passes); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}
}

// measure runs one pass (traced when t is non-nil), records its time and
// memory, and checks its output.
func (b *bench) measure(t *tracer) {
	collect()
	resetPeakRSS()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	var report bytes.Buffer
	t0 := time.Now()
	res, err := b.safePass(t, &report)
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms)

	b.attempted += b.wl.runs
	if err == nil {
		err = checkPass(b.wl, res)
	}
	if err == nil {
		err = b.checkReport(report.Bytes())
	}
	if err == nil && t != nil {
		err = b.recordLayers(t, wall)
	}
	if err != nil {
		var se *sweep.Errors
		if errors.As(err, &se) && len(se.Runs) < b.wl.runs {
			b.failed += len(se.Runs)
		} else {
			b.failed += b.wl.runs
		}
		if b.checkErr == nil {
			b.checkErr = err
		}
		return
	}
	if res.results != nil && b.claims < 0 {
		b.claims = experiments.CheckClaims(io.Discard, res.results)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s pass %d (traced %v): %.4f s\n", b.wl.name, len(b.wall)+len(b.tracedWall)+1, t != nil, wall)
	if t != nil {
		b.tracedWall = append(b.tracedWall, wall)
		return
	}
	b.wall = append(b.wall, wall)
	b.allocMB = append(b.allocMB, float64(ms.TotalAlloc-alloc0)/(1<<20))
	b.rssMB = append(b.rssMB, peakRSSMB())
}

// safePass runs one pass, turning a panic into an error.
func (b *bench) safePass(t *tracer, report *bytes.Buffer) (res *passResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	if t == nil {
		return b.in.pass(report)
	}
	rt := t.newRun(-1)
	defer rt.finish()
	rt.enter("bench.pass")
	defer rt.exit()
	return b.in.tracedPass(rt, report)
}

// timingLine matches what varies between identical passes: the sweep
// timing suffix, and the campaign and trace-cache status lines.
var timingLine = regexp.MustCompile(`(?m) \(sweep took [^)]*\)|^(campaign|tracecache):.*$`)

// checkReport compares a pass's report, without timing lines, to the
// first pass's.
func (b *bench) checkReport(report []byte) error {
	norm := timingLine.ReplaceAll(report, nil)
	if b.reference == nil {
		if len(norm) == 0 {
			return errors.New("empty report")
		}
		b.reference = norm
		sum := sha256.Sum256(norm)
		b.reportSum = hex.EncodeToString(sum[:])
		return nil
	}
	if !bytes.Equal(norm, b.reference) {
		return fmt.Errorf("report differs from the first pass's (%s)", firstDiff(b.reference, norm))
	}
	return nil
}

func firstDiff(a, b []byte) string {
	la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d: %q vs %q", i+1, la[i], lb[i])
		}
	}
	return "lengths " + strconv.Itoa(len(a)) + " and " + strconv.Itoa(len(b))
}

// collect returns freed memory to the OS, so that each pass's peak RSS
// starts from the live inputs alone.
func collect() {
	runtime.GC()
	debug.FreeOSMemory()
}

// resetPeakRSS restarts the kernel's peak-RSS counter (Linux clear_refs).
// Where that is not possible, peak_rss_mb is the process's peak so far.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

var hwmLine = regexp.MustCompile(`(?m)^VmHWM:\s+(\d+) kB`)

func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	m := hwmLine.FindSubmatch(data)
	if m == nil {
		return 0
	}
	kb, _ := strconv.ParseFloat(string(m[1]), 64)
	return kb / 1024
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
