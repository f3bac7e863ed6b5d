// Command perfbench is SPERR-Go's seeded end-to-end benchmark. One run
// executes one workload for a fixed time, checks every output against an
// in-process oracle, and prints one JSON result line:
//
//	perfbench -workload pipeline-miranda -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics, measured with
// tracing off; with -trace 1 it holds the per-layer metrics of a separate
// traced run of the same inputs. See README.md for the workloads.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	tr      *tracer // nil in untraced runs
	dir     string  // scratch space for stores, inside the checkout
}

func (c runConfig) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// outcome is what a workload reports back.
type outcome struct {
	attempted, failed int
	// problems lists oracle failures; any entry makes the run incorrect.
	problems []string
	metrics  map[string]metric
	context  map[string]any
}

func (o *outcome) fail(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

type workload func(runConfig) (*outcome, error)

var workloads = map[string]workload{
	"pipeline-miranda":   runPipeline,
	"node-region-hot":    runNodeHot,
	"cluster-churn-cold": runClusterCold,
}

// heldOutSeed is reserved for confirming a later performance claim: it
// was not used while the benchmark was tuned.
const heldOutSeed = 7919

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed: sets volumes, boxes and operation order")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	dir := flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory")
	flag.Parse()

	wl, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload %s, -seconds > 0, -trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	res, err := execute(*name, wl, *seed, *seconds, *trace == 1, *dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute runs one workload and assembles its result; the context line
// is printed to stdout before the result.
func execute(name string, wl workload, seed int64, seconds float64, traced bool, dir string) (*result, error) {
	runDir := filepath.Join(dir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	cfg := runConfig{seed: seed, seconds: seconds, dir: runDir}
	if traced {
		cfg.tr = newTracer()
	}
	out, err := wl(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	ctx := hostContext()
	ctx["workload"], ctx["seed"], ctx["seconds"], ctx["traced"] = name, seed, seconds, traced
	ctx["held_out_seed"] = heldOutSeed
	for k, v := range out.context {
		ctx[k] = v
	}
	if traced {
		path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))
		if err := cfg.tr.write(path); err != nil {
			return nil, err
		}
		ctx["trace_file"] = path
	}
	if len(out.problems) > 0 {
		ctx["problems"] = out.problems
	}
	line, _ := json.Marshal(ctx)
	fmt.Println("context " + string(line))
	return &result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	}, nil
}

// hostContext records what a result depends on besides the code.
func hostContext() map[string]any {
	ctx := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"goamd64":    "v1",
		"disk":       "fsync and disk timings are the sandbox filesystem's, not a device's",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				ctx["goamd64"] = s.Value
			}
		}
	}
	return ctx
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTimes is the host-wide CPU time split from /proc/stat, in ticks.
type cpuTimes struct{ total, steal float64 }

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t cpuTimes
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user..steal; guest time is already in user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealSince is the share of CPU time the hypervisor took from this
// machine since t0: context for a slow run, not a metric.
func stealSince(t0 cpuTimes) float64 {
	t1 := readCPUTimes()
	return ratio(t1.steal-t0.steal, t1.total-t0.total)
}

// settle collects the garbage set-up left behind, so the measured phase
// starts from the same heap on every run, and returns the peak RSS so far.
func settle() float64 {
	runtime.GC()
	return peakRSSMB()
}

// peakRSSMB is the process's VmHWM in MB (1e6 bytes).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last setup is the one measured.
const setupRepeats = 3

// e2e adds the end-to-end metrics every workload reports.
// rss is read when the measured phase ends, before the oracle runs.
func (o *outcome) e2e(readMBps, readP50, readP90, writeP50, bpp float64, setups []float64, rss float64) {
	o.set("read_mbps", "MB/s", readMBps)
	o.set("read_p50_ms", "ms", readP50)
	o.set("read_p90_ms", "ms", readP90)
	o.set("write_p50_ms", "ms", writeP50)
	o.set("bpp", "bits/point", bpp)
	o.set("ok_frac", "ratio", 1-ratio(float64(o.failed), float64(o.attempted)))
	o.set("peak_rss_mb", "MB", rss)
	o.set("setup_s", "s", median(setups))
}
