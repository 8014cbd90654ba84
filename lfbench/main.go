// Command lfbench is the LabFlow-1 repository benchmark. One run executes
// one workload for a fixed time, checks the program's outputs against
// oracles computed apart from the program, and prints one JSON object as
// its last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// wraps each layer's public API in timing wrappers and prints per-layer
// metrics instead. -steady runs two alternating sets of untraced runs of
// this build and prints each metric's medians, quartiles and gap against
// the bounds in BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	work     string // scratch directory for this run's stores
	build    string // the build directory (spans are written here)
}

// result is the line the run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result { return &result{Correct: true, Metrics: make(map[string]metric)} }

// set records a metric under its unit. An unknown name is a bug; so is a
// NaN or infinite value, which means the run measured nothing.
func (r *result) set(name string, v float64) {
	unit, ok := units[name]
	if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("lfbench: metric %s = %v (unit %q)", name, v, unit))
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in its
// order (TestUnitsMatchBenchmark). Every workload prints every end-to-end
// metric with -trace 0 and every per-layer metric with -trace 1; an
// operation is what the workload's ops_per_s counts (README "Operations").
var endToEnd = []string{"setup_s", "peak_rss_mb", "ops_per_s"}

var perLayer = []string{
	"labbase.self_us_per_op",
	"labbase.calls_per_op",
	"labbase.call_us",
	"storage.busy_us_per_op",
	"storage.reads_per_op",
	"storage.writes_per_op",
	"storage.commit_us",
	"runtime.alloc_bytes_per_op",
	"runtime.allocs_per_op",
	"trace.overhead_pct",
}

// units names every metric the benchmark computes with its unit: the
// declared ones above, then the ledger of metrics that only some workloads
// produce (a layer the workload does not run has nothing to report). The
// ledger is printed to standard error beside the declared metrics, not in
// the result line.
var units = map[string]string{
	"setup_s":     "s",
	"peak_rss_mb": "MiB",
	"ops_per_s":   "ops/s",

	"labbase.self_us_per_op":     "us",
	"labbase.calls_per_op":       "count",
	"labbase.call_us":            "us",
	"storage.busy_us_per_op":     "us",
	"storage.reads_per_op":       "count",
	"storage.writes_per_op":      "count",
	"storage.commit_us":          "us",
	"runtime.alloc_bytes_per_op": "B",
	"runtime.allocs_per_op":      "count",
	"trace.overhead_pct":         "%",

	"steps_per_s":                      "steps/s",
	"db_bytes_per_step":                "B",
	"read_p50_us":                      "us",
	"read_p99_us":                      "us",
	"write_p50_us":                     "us",
	"write_p99_us":                     "us",
	"view_p50_us":                      "us",
	"closure_p50_us":                   "us",
	"tabled_closure_p50_us":            "us",
	"restart_s":                        "s",
	"seqio.search_s":                   "s",
	"seqio.search_us":                  "us",
	"core.self_s":                      "s",
	"labbase.record_step_us":           "us",
	"labbase.most_recent_us":           "us",
	"labbase.history_us":               "us",
	"labbase.put_steps_us":             "us",
	"labbase.open_s":                   "s",
	"storage.faults_per_kstep":         "count",
	"storage.page_writes_per_step":     "count",
	"storage.bytes_per_live_byte":      "ratio",
	"storage.reopen_s":                 "s",
	"storage.replayed_records":         "count",
	"shard.overlap":                    "ratio",
	"wire.read_self_us":                "us",
	"wire.write_self_us":               "us",
	"wire.bytes_per_op":                "B",
	"datalog.view_us":                  "us",
	"datalog.steps_per_view":           "count",
	"datalog.tabled_closure_us":        "us",
	"datalog.steps_per_tabled_closure": "count",
	"lbq.closure_us":                   "us",
	"lbq.reads_per_closure":            "count",
	"lbq.reads_per_view":               "count",
}

// errIncorrect marks an oracle mismatch: the run finished but the
// program's output was wrong.
var errIncorrect = errors.New("output check failed")

// errFailed marks an operation the program answered with an error. The run
// counts it in failed and goes on with the next one.
var errFailed = errors.New("operation failed")

func incorrect(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errIncorrect, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*result, error){
	"labflow1": runLabflow1,
	"service":  runService,
	"ingest":   runIngest,
}

func main() {
	var (
		cfg     config
		secs    int
		trace   int
		steady  bool
		seedArg int64
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: labflow1, service or ingest")
	flag.Int64Var(&seedArg, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&secs, "seconds", 10, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.StringVar(&cfg.build, "build", ".bench_build", "build directory (scratch stores and span files go here)")
	flag.BoolVar(&steady, "steady", false, "run two alternating sets of untraced runs and compare their medians")
	flag.Parse()
	cfg.seed = seedArg
	cfg.seconds = time.Duration(secs) * time.Second
	cfg.trace = trace == 1

	if steady {
		if err := runSteady(secs, cfg.build); err != nil {
			fmt.Fprintln(os.Stderr, "lfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[cfg.workload]
	if !ok || secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "lfbench: need -workload labflow1|service|ingest, -seconds >= 1 and -trace 0|1 (got %q, %d, %d)\n", cfg.workload, secs, trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(cfg.build, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "lfbench:", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(cfg.build, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfbench:", err)
		os.Exit(1)
	}
	cfg.work = work
	res, err := run(cfg)
	os.RemoveAll(work)
	if err != nil {
		// The result line still reports what was attempted and how much
		// failed before the run stopped.
		fmt.Fprintf(os.Stderr, "lfbench: %s: %v\n", cfg.workload, err)
		if res != nil {
			res.Correct = !errors.Is(err, errIncorrect)
			printResult(res, cfg.trace, true)
		}
		os.Exit(1)
	}
	if missing := printResult(res, cfg.trace, false); len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "lfbench: %s: the run did not measure %v\n", cfg.workload, missing)
		os.Exit(1)
	}
}

// printResult prints every metric the run measured to standard error, the
// ledger included, and the result line with the declared metrics of the
// pass (end-to-end or per-layer) to standard output. It returns the
// declared metrics the run did not measure; a finished run that misses one
// prints no result line. A run stopped by an error prints what it has, so
// its attempted and failed counts are still reported.
func printResult(res *result, trace, stopped bool) (missing []string) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", k, m.Value, m.Unit)
	}
	declared := endToEnd
	if trace {
		declared = perLayer
	}
	line := &result{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metric{}}
	for _, k := range declared {
		if m, ok := res.Metrics[k]; ok {
			line.Metrics[k] = m
		} else {
			missing = append(missing, k)
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lfbench:", err)
		os.Exit(1)
	}
	if len(missing) == 0 || stopped {
		fmt.Println(string(b))
	}
	return missing
}

// setLayerMetrics sets the per-layer metrics every workload prints from
// the span aggregates of its traced stretch and the operations that
// stretch did: labbase's own time and calls, and the storage manager's
// busy time, calls and commit time.
func setLayerMetrics(res *result, sum map[string]agg, ops float64) {
	layers := layerSums(sum)
	lb, sm := layers["labbase"], layers["storage"]
	res.set("labbase.self_us_per_op", micros(lb.self)/ops)
	res.set("labbase.calls_per_op", float64(lb.n)/ops)
	res.set("labbase.call_us", micros(lb.total)/float64(lb.n))
	res.set("storage.busy_us_per_op", micros(sm.total)/ops)
	res.set("storage.reads_per_op", float64(sum["storage.Read"].n)/ops)
	res.set("storage.writes_per_op", float64(sum["storage.Write"].n)/ops)
	res.set("storage.commit_us", micros(sum["storage.Commit"].total)/float64(sum["storage.Commit"].n))
}

// roundDir is a fresh directory for one round's stores.
func roundDir(cfg config, tag string, round int) (string, error) {
	dir := filepath.Join(cfg.work, fmt.Sprintf("%s-%d", tag, round))
	return dir, os.MkdirAll(dir, 0o755)
}

// spanFile is where the traced pass writes its spans.
func spanFile(cfg config) string {
	return filepath.Join(cfg.build, fmt.Sprintf("spans-%s.txt", cfg.workload))
}
