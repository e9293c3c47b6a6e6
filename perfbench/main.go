// Command perfbench is the Owan benchmark: it runs one workload against the
// repository's packages, checks the program's outputs, and prints one JSON
// result line. With -trace 0 the line carries the end-to-end metrics, with
// -trace 1 the per-layer metrics of a separate traced pass. BENCHMARK.json
// at the repository root lists both sets; README.md describes them.
//
//	perfbench -workload isp40-paper -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart is taken during package initialization, before main runs,
// so setup_s covers the process from start to ready.
var processStart = time.Now()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// setupSamples is how many fresh processes (this one included) time the
	// workload's setup for setup_s. Route tables are cached process-wide, so
	// every sample needs a process of its own.
	setupSamples int
}

// outcome is what a workload run hands back: its metrics, the operation
// counts, and every output check that failed.
type outcome struct {
	metrics   metricSet
	attempted int
	failed    int
	setup     time.Duration
	failures  []string
}

func newOutcome() *outcome { return &outcome{metrics: metricSet{}} }

// check records a failed output check.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

type workloadDef struct {
	// setup builds the workload's inputs and program state the way run
	// does and returns the time from process start to ready.
	setup func(o options) (time.Duration, error)
	run   func(o options) (*outcome, error)
	// setupSamples is the default number of setup_s samples.
	setupSamples int
}

var workloads = map[string]workloadDef{
	"isp40-paper":  {setup: isp40Paper.setupOnly, run: isp40Paper.run, setupSamples: 5},
	"isp200-drift": {setup: isp200Drift.setupOnly, run: isp200Drift.run, setupSamples: 3},
	"ctrl-isp40":   {setup: ctrlISP40.setupOnly, run: ctrlISP40.run, setupSamples: 5},
}

func main() {
	var (
		o         options
		trace     int
		setupOnly bool
	)
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.BoolVar(&setupOnly, "setup-only", false, "time the workload's setup, print seconds and exit")
	flag.Parse()
	o.trace = trace == 1
	w, ok := workloads[o.workload]
	if !ok {
		fatalf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if setupOnly {
		d, err := w.setup(o)
		if err != nil {
			fatalf("setup: %v", err)
		}
		fmt.Println(strconv.FormatFloat(d.Seconds(), 'g', -1, 64))
		return
	}
	o.setupSamples = w.setupSamples
	res, failures, err := measure(o, w)
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// measure runs one workload and assembles its result line: the end-to-end
// metrics (setup_s from setupSamples processes) or, traced, the per-layer
// ones. It also returns the output checks that failed.
func measure(o options, w workloadDef) (*result, []string, error) {
	out, err := w.run(o)
	if err != nil {
		return nil, nil, err
	}
	if o.trace {
		out.metrics.complete(perLayer)
	} else {
		setup, err := setupSeconds(o, out.setup)
		if err != nil {
			return nil, nil, fmt.Errorf("setup samples: %w", err)
		}
		out.metrics.set("setup_s", setup, "s")
		out.metrics.set("maxrss_mb", maxRSSMB(), "MB")
		for _, d := range endToEnd {
			if _, ok := out.metrics[d.name]; !ok {
				return nil, nil, fmt.Errorf("did not measure %s", d.name)
			}
		}
	}
	return &result{
		Correct: len(out.failures) == 0, Attempted: max(out.attempted, 1), Failed: out.failed, Metrics: out.metrics,
	}, out.failures, nil
}

// setupSeconds is the median of this process's setup time and those of
// setupSamples-1 fresh child processes that only set up.
func setupSeconds(o options, own time.Duration) (float64, error) {
	samples := []float64{own.Seconds()}
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	for len(samples) < o.setupSamples {
		cmd := exec.Command(exe, "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-setup-only")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return 0, err
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return 0, fmt.Errorf("child printed %q: %w", b, err)
		}
		samples = append(samples, v)
	}
	return quantile(samples, 0.5), nil
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
