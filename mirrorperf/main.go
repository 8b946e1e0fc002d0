// Command mirrorperf is the repository's benchmark. It runs one named
// workload against the Mirror reproduction, checks every output it gets
// back, and prints its metrics by name with their units; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (ops_per_s, latency
// percentiles, setup_s, recovery_s, bytes_per_key). With -trace 1 the run
// records spans around the benchmark's calls into each layer and reports
// the per-layer ledger instead (see METRICS.md for every name).
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash mirrorperf/run.sh --workload kv-update-pipelined --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"mirror/internal/harness"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them with -trace 0.
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s"},
	{"read_p50_us", "us"},
	{"read_p99_us", "us"},
	{"write_p50_us", "us"},
	{"write_p99_us", "us"},
	{"setup_s", "s"},
	{"recovery_s", "s"},
	{"bytes_per_key", "B"},
}

// perLayer is the traced run's ledger; every workload reports all of them
// with -trace 1. A layer a workload does not pass through reports zero.
var perLayer = []metricSpec{
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"wire.bytes_per_op", "B"},
	{"server.ops_per_batch", "count"},
	{"server.replays", "count"},
	{"server.wait_us", "us"},
	{"server.alloc_bytes_per_op", "B"},
	{"server.gc_per_kop", "count"},
	{"engine.exec_ns", "ns"},
	{"engine.detect_ns", "ns"},
	{"engine.drain_ns", "ns"},
	{"engine.fences_per_write", "count"},
	{"engine.flushes_per_write", "count"},
	{"engine.elided_fences_per_op", "count"},
	{"engine.piggybacked_fences_per_op", "count"},
	{"structures.get_ns", "ns"},
	{"structures.insert_ns", "ns"},
	{"structures.delete_ns", "ns"},
	{"patomic.helps_per_op", "count"},
	{"patomic.retries_per_op", "count"},
	{"pmem.flushes_per_op", "count"},
	{"pmem.fences_per_op", "count"},
	{"palloc.live_words", "count"},
	{"palloc.reclaimed_words_at_recovery", "count"},
	{"recovery.recover_s", "s"},
	{"recovery.first_op_us", "us"},
	{"recovery.keys_per_s", "1/s"},
	{"recovery.violations", "count"},
	{"recovery.stuck_ops", "count"},
	{"recovery.check_ops_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// tracePath is where the traced run writes its spans at exit.
	tracePath string
	out       io.Writer
}

// result is one workload run's outcome.
type result struct {
	attempted, failed uint64
	metrics           map[string]float64
}

func newResult() *result { return &result{metrics: make(map[string]float64)} }

// workloads maps each -workload name to its runner.
var workloads = map[string]func(runConfig) (*result, error){
	"kv-update-pipelined": kvUpdatePipelined.run,
	"kv-read-sync":        kvReadSync.run,
	"lib-skiplist-crash":  runLib,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mirrorperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer ledger")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "mirrorperf: need -workload in %v, -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		out:     stdout,
	}
	if cfg.trace {
		cfg.tracePath = fmt.Sprintf("%s/%s-seed%d.tsv", *traceDir, *name, *seed)
	}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %d trace %d | nproc %d GOMAXPROCS %d %s\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "mirrorperf: %s: %v\n", *name, err)
		return 1
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	if err := report(stdout, res, specs); err != nil {
		fmt.Fprintf(stderr, "mirrorperf: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the metric table and failed_ratio, then the JSON result
// line. failed_ratio is printed but kept out of the JSON metrics: it is
// zero on a correct run, and the result line's attempted and failed
// already carry it.
func report(w io.Writer, res *result, specs []metricSpec) error {
	if res.attempted == 0 {
		return fmt.Errorf("no operation was attempted")
	}
	line := resultLine{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v, ok := res.metrics[s.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.name)
		}
		fmt.Fprintf(w, "  %-36s %16.6g %s\n", s.name, v, s.unit)
		line.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	fmt.Fprintf(w, "  %-36s %16.6g ratio (%d failed / %d attempted)\n", "failed_ratio",
		float64(res.failed)/float64(res.attempted), res.failed, res.attempted)
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", raw)
	return nil
}

// figures are one window's end-to-end throughput and latency.
type figures struct {
	opsPerS, readP50, readP99, writeP50, writeP99 float64
}

func newFigures(ops uint64, secs float64, read, write *harness.Hist) figures {
	return figures{
		opsPerS:  ratio(float64(ops), secs),
		readP50:  float64(read.Percentile(50)) / 1e3,
		readP99:  float64(read.Percentile(99)) / 1e3,
		writeP50: float64(write.Percentile(50)) / 1e3,
		writeP99: float64(write.Percentile(99)) / 1e3,
	}
}

// putMedians stores the median of each figure over the windows. Medians
// of short windows resist the stalls a shared host imposes now and then.
func putMedians(m map[string]float64, fs []figures) {
	pick := func(f func(figures) float64) float64 {
		xs := make([]float64, len(fs))
		for i := range fs {
			xs[i] = f(fs[i])
		}
		return median(xs)
	}
	m["ops_per_s"] = pick(func(f figures) float64 { return f.opsPerS })
	m["read_p50_us"] = pick(func(f figures) float64 { return f.readP50 })
	m["read_p99_us"] = pick(func(f figures) float64 { return f.readP99 })
	m["write_p50_us"] = pick(func(f figures) float64 { return f.writeP50 })
	m["write_p99_us"] = pick(func(f figures) float64 { return f.writeP99 })
}

// subWindow is the length of one measured window.
const subWindow = 2 * time.Second

// subWindows splits a measured phase of length d into windows of about
// subWindow each.
func subWindows(d time.Duration) (int, time.Duration) {
	n := int(d / subWindow)
	if n < 1 {
		n = 1
	}
	return n, d / time.Duration(n)
}

// overheadPct is the tracing overhead: how much lower the traced windows'
// median throughput is than the untraced windows'.
func overheadPct(plain, traced []figures) float64 {
	m0, m1 := map[string]float64{}, map[string]float64{}
	putMedians(m0, plain)
	putMedians(m1, traced)
	return 100 * (1 - ratio(m1["ops_per_s"], m0["ops_per_s"]))
}

// ratio is a/b, or 0 when nothing was counted in b.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median returns the middle of xs (the mean of the middle two for an even
// count); xs is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
