// Command perfbench is the repository benchmark. It runs one seeded workload
// against the scheduler's packages, checks every output, and prints one JSON
// result line: end-to-end metrics with -trace 0, per-layer metrics with
// -trace 1. BENCHMARK.json at the repository root names the workloads and
// metrics; README.md in this directory says what each one measures.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

var bgCtx = context.Background()

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a -trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"tts_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"goodput_ops_per_s", "1/s"},
	{"edp_ratio_geomean", "ratio"},
}

// perLayer are the metrics a -trace 1 run reports. A layer the workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"order.self_ms", "ms"},
	{"core.enumerate_self_ms", "ms"},
	{"cost.evaluate_self_ms", "ms"},
	{"core.polish_self_ms", "ms"},
	{"core.other_self_ms", "ms"},
	{"core.op_wall_ms", "ms"},
	{"core.generated", "count"},
	{"core.pruned_ordering", "count"},
	{"core.pruned_tiling", "count"},
	{"core.pruned_unrolling", "count"},
	{"core.allocs_per_solve", "count"},
	{"core.alloc_mb_per_solve", "MB"},
	{"core.compile_ms", "ms"},
	{"cost.evaluated", "count"},
	{"cost.eval_hit_ratio", "ratio"},
	{"cost.eval_ns", "ns"},
	{"cost.audit_ns", "ns"},
	{"analytic.bound_pruned", "count"},
	{"analytic.seed_gap", "ratio"},
	{"analytic.bound_violations", "count"},
	{"engine.compiles", "count"},
	{"engine.hits", "count"},
	{"engine.hit_ratio", "ratio"},
	{"fusion.groups_considered", "count"},
	{"fusion.groups_pruned", "count"},
	{"fusion.groups_infeasible", "count"},
	{"fusion.groups_solved", "count"},
	{"fusion.self_ms", "ms"},
	{"fusion.edp_gain", "ratio"},
	{"server.submit_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.shed", "count"},
	{"server.attempts_per_job", "count"},
	{"server.recovered_jobs", "count"},
	{"journal.fsyncs_per_job", "count"},
	{"journal.bytes_per_job", "bytes"},
	{"journal.replay_ms", "ms"},
	{"service.job_p50_ms.low", "ms"},
	{"service.job_p90_ms.low", "ms"},
	{"service.job_p50_ms.high", "ms"},
	{"service.job_p90_ms.high", "ms"},
	{"service.goodput_jps.high", "1/s"},
	{"service.restart_ms", "ms"},
	{"service.cold_share", "ratio"},
	{"loadgen.late_ms", "ms"},
	{"trace.overhead_s", "s"},
}

// workload is one benchmark workload after its set-up: measure runs the
// timed part, close releases what set-up made.
type workload interface {
	measure(r *run) error
	close()
}

// setups builds each workload from the run's seed. Everything a setup does
// counts toward setup_s.
var setups = map[string]func(r *run) (workload, error){
	"solve-cold":    setupSolveCold,
	"network-fused": setupNetworkFused,
	"service-mix":   setupServiceMix,
}

// run is one benchmark invocation's state.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	dir      string // scratch directory inside the checkout
	ref      reference
	bounds   boundViolations
	spans    *benchSpans

	attempted, failed int
	metrics           map[string]float64

	setupXs  []float64 // setup_s samples, s
	probeErr error     // the first failed setup probe
}

// fail counts one failed operation and says why on stderr.
func (r *run) fail(err error) {
	r.failed++
	if r.failed <= 20 {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
	}
}

// check counts one attempted operation, failed when err is non-nil.
func (r *run) check(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

func main() {
	workloadName := flag.String("workload", "", "solve-cold | network-fused | service-mix")
	seed := flag.Int64("seed", 1, "seed for the workload's draw and order")
	seconds := flag.Int("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	work := flag.String("work", filepath.Join(".bench_build", "perfbench"), "scratch directory (journals, traces)")
	probe := flag.Bool("setup-probe", false, "internal: run the workload's set-up once, print ready, tear down")
	writeRef := flag.String("write-reference", "", "solve every drawable problem and write the reference table to this file")
	flag.Parse()

	if *writeRef != "" {
		if err := writeReference(*writeRef); err != nil {
			fatal(err)
		}
		return
	}
	setup, ok := setups[*workloadName]
	if !ok {
		fatal(fmt.Errorf("unknown -workload %q", *workloadName))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, not %d", *trace))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	ref, err := loadReference()
	if err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(mustMkdir(*work), "run-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	r := &run{
		workload: *workloadName,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		dir:      dir,
		ref:      ref,
		bounds:   boundViolations{},
		spans:    newBenchSpans(),
		metrics:  map[string]float64{},
	}
	// A run that hangs (a stuck service, a lost HTTP response) fails
	// instead of outliving its slot.
	time.AfterFunc(r.seconds+150*time.Second, func() {
		fatal(fmt.Errorf("run did not finish within %v", r.seconds+150*time.Second))
	})
	if *probe {
		w, err := setup(r)
		if err != nil {
			fatal(err)
		}
		fmt.Println("ready")
		w.close()
		return
	}
	if err := execute(r, setup, *work); err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
}

// execute measures set-up, runs the workload, and prints the result.
func execute(r *run, setup func(*run) (workload, error), work string) error {
	env := environment(r)
	envLine, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(envLine))

	w, err := setup(r)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	err = w.measure(r)
	w.close()
	if err != nil {
		return err
	}
	r.probeSetup(setupProbes - len(r.setupXs))
	if r.probeErr != nil {
		return r.probeErr
	}
	if !r.trace {
		r.set("setup_s", median(r.setupXs))
	}
	r.set("analytic.bound_violations", float64(len(r.bounds)))
	r.set("peak_rss_mb", peakRSSMB())

	defs := endToEnd
	if r.trace {
		defs = perLayer
		path := filepath.Join(work, fmt.Sprintf("trace-%s-seed%d.json", r.workload, r.seed))
		if err := r.spans.writeChrome(path); err != nil {
			return fmt.Errorf("write bench spans: %w", err)
		}
		fmt.Fprintln(os.Stderr, "perfbench: benchmark spans written to", path)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, map[string]map[string]any{}}
	for _, d := range defs {
		out.Metrics[d.name] = map[string]any{"value": r.metrics[d.name], "unit": d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setupProbes is the least number of setup_s samples a run takes; the
// median is reported. A process start takes milliseconds and sways with the
// shared machine, so take many.
const setupProbes = 11

// probeSetup takes n setup_s samples: each starts a fresh process of this
// binary and times it until its workload's first timed operation is ready.
// Workloads call it between their timed passes, so the samples spread over
// the run: a process start read every two seconds for 30 s on a shared
// two-core machine ranged 2.8-4.8 ms, as wide as the spread between runs.
// A traced run takes none.
func (r *run) probeSetup(n int) {
	if r.trace || r.probeErr != nil {
		return
	}
	exe, err := os.Executable()
	if err != nil {
		r.probeErr = err
		return
	}
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-setup-probe", "-workload", r.workload,
			"-seed", strconv.FormatInt(r.seed, 10), "-work", filepath.Dir(r.dir))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			r.probeErr = err
			return
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			r.probeErr = err
			return
		}
		timer := time.AfterFunc(60*time.Second, func() { cmd.Process.Kill() })
		line, readErr := bufio.NewReader(stdout).ReadString('\n')
		d := time.Since(start)
		waitErr := cmd.Wait()
		timer.Stop()
		if readErr != nil || strings.TrimSpace(line) != "ready" || waitErr != nil {
			r.probeErr = fmt.Errorf("setup probe: %v", errors.Join(readErr, waitErr, fmt.Errorf("first line %q", line)))
			return
		}
		r.setupXs = append(r.setupXs, d.Seconds())
	}
}

// environment records what the numbers depend on.
func environment(r *run) map[string]any {
	env := map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.seconds.Seconds(),
		"trace":      r.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit(),
	}
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source the run measured: the git commit when the
// working directory is a repository root, else "unknown" (a plain copy of
// the tree).
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
