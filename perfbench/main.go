// Command perfbench is the repository's benchmark. It routes a fixed
// number of whole passes over a seeded corpus of nets through one named
// workload, verifies every output, and prints its metrics as one JSON line on
// standard output. With -trace 1 it also runs the workload with spans
// around each layer's entry points and prints per-layer metrics instead.
// README.md explains the workloads, the metrics and the steadiness mode.
//
// Usage:
//
//	perfbench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//	perfbench -workload <name> -seed <n> -seconds <s> -steadiness <k>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricDef names one reported metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd lists the metrics of an untraced run, reported on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"delay_ratio", "ratio"},
	{"cost_ratio", "ratio"},
	{"alloc_mb_per_op", "MiB"},
	{"heap_retained_mb", "MiB"},
}

// perLayer lists the metrics of a traced run. A workload that never calls
// a layer reports 0 for it.
var perLayer = []metricDef{
	{"steiner.tree_ms", "ms"},
	{"steiner.share", "ratio"},
	{"steiner.points_per_op", "count"},
	{"core.ldrg_ms", "ms"},
	{"core.search_share", "ratio"},
	{"core.oracle_evals_per_op", "count"},
	{"core.candidates_per_op", "count"},
	{"core.pruned_ratio", "ratio"},
	{"core.accept_ratio", "ratio"},
	{"elmore.incr_evals_per_op", "count"},
	{"elmore.cache_hit_ratio", "ratio"},
	{"elmore.factorizations_per_op", "count"},
	{"elmore.graph_solves_per_op", "count"},
	{"spice.measure_ms", "ms"},
	{"spice.share", "ratio"},
	{"spice.mna_dim", "count"},
	{"spice.tran_steps_per_op", "count"},
	{"spice.mna_factorizations_per_op", "count"},
	{"spice.mna_solves_per_op", "count"},
	{"spice.horizon_retry_ratio", "ratio"},
	{"spice.dense_mflop_per_op", "MFLOP"},
	{"serve.client_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.decode_ms", "ms"},
	{"serve.sweep_ms", "ms"},
	{"serve.oracle_ms", "ms"},
	{"serve.store_ms", "ms"},
	{"serve.unattributed_ms", "ms"},
	{"serve.read_log_ms", "ms"},
	{"serve.read_trace_ms", "ms"},
	{"serve.shed_per_op", "count"},
	{"trace.events_per_op", "count"},
	{"trace.evictions_per_op", "count"},
	{"olog.evictions_per_op", "count"},
	{"mst.prim_ms", "ms"},
	{"go.gc_cycles_per_op", "count"},
	{"go.gc_pause_ms_per_op", "ms"},
	{"bench.tracing_overhead", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON line a run prints last.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOpts are one run's settings.
type runOpts struct {
	seed    int64
	seconds float64
	traced  bool
	spans   string    // traced run: span JSONL path
	log     io.Writer // human-readable notes
}

// setupReps is how many times a run repeats its set-up; setup_s is the
// slowRank-th percentile of them, as the batch speed metrics are of their
// repetitions.
const setupReps = 11

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "corpus seed")
	seconds := fs.Float64("seconds", 10, "about how long the measured windows last; sets the pass count")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spans := fs.String("spans", "", "traced run: span JSONL path (default .bench_build/spans/<workload>-<seed>.jsonl)")
	steady := fs.Int("steadiness", 0, "k > 0: run the workload k times on seeds seed..seed+k-1 and print each metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := lookupWorkload(*name)
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0 or 1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if *steady > 0 {
		if err := steadiness(stdout, w.name, *seed, *seconds, *traced, *steady); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	o := runOpts{seed: *seed, seconds: *seconds, traced: *traced == 1, spans: *spans, log: stderr}
	if o.spans == "" {
		o.spans = fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", w.name, *seed)
	}
	rep, err := w.run(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// newReport fills a report with the catalog's metrics from values, which
// must name each of them. A run is correct when no op failed.
func newReport(defs []metricDef, values map[string]float64, attempted, failed int) (*report, error) {
	rep := &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("internal error: metric %s not computed", d.Name)
		}
		rep.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("internal error: %d metrics computed for a catalog of %d", len(values), len(defs))
	}
	return rep, nil
}

// timeSetup runs setup setupReps times and returns the slowRank-th
// percentile of the CPU time each took (README.md, "Steadiness"). Every
// repetition does the same deterministic, sequential work, on one CPU like
// the batch workloads; the state of the last one is what the run then
// measures.
func timeSetup(setup func() error, log io.Writer) (float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	durs := make([]float64, setupReps)
	for i := range durs {
		runtime.GC()
		t0 := cpuSeconds()
		if err := setup(); err != nil {
			return 0, err
		}
		durs[i] = cpuSeconds() - t0
	}
	fmt.Fprintf(log, "set-up CPU-seconds %.4f: setup_s is their p%g\n", durs, slowRank*100)
	return slowQuantile(durs), nil
}

// cpuSeconds returns the CPU time the process has used. Batch workloads
// and set-up run on one CPU, so over one of their intervals this is the
// wall time less the time a virtual machine's host gave that CPU to other
// tenants (steal time), which the kernel does not count (README.md,
// "Steadiness").
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// runtimeCounters is a reading of the Go runtime's allocation and GC totals.
type runtimeCounters struct {
	allocBytes, gcCycles uint64
	pauseNs              uint64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(), pauseNs: ms.PauseTotalNs}
}

func (a runtimeCounters) since(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.pauseNs - b.pauseNs}
}

// liveHeapMiB forces a collection and returns the heap still live after it.
func liveHeapMiB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// window is what one measured interval of a workload recorded.
type window struct {
	// samples holds each op's latency in seconds, in op order, so pass j
	// is samples[j*n : (j+1)*n] for an n-net corpus.
	samples []float64
	passes  []float64 // seconds each pass took
	busy    float64   // seconds the ops themselves took
	wall    float64   // seconds the window lasted
	// wallClock marks samples and passes timed in wall time (route-daemon)
	// rather than process CPU time (batch workloads).
	wallClock bool
	rt        runtimeCounters
}

func (w *window) attempted() int { return len(w.samples) }

// speedMetrics adds ops_per_s, op_p50_ms and op_tail_ms. Every pass routes
// the same nets, so each net has one latency sample per pass. How the
// repetitions are read depends on the clock (README.md, "Steadiness").
func (w *window) speedMetrics(values map[string]float64, log io.Writer) error {
	n := len(w.samples) / len(w.passes)
	p, err := tailPercentile(n)
	if err != nil {
		return err
	}
	if w.wallClock {
		return w.fastestPass(values, n, p, log)
	}
	return w.slowPercentile(values, n, p, log)
}

// fastestPass measures a wall-clock window on its fastest pass and that
// pass's raw samples. Wall time includes the time the host gives a CPU to
// other tenants, which only ever adds, so the fastest pass is the least
// disturbed measurement of the same work.
func (w *window) fastestPass(values map[string]float64, n int, p float64, log io.Writer) error {
	best := 0
	for j, d := range w.passes {
		if d < w.passes[best] {
			best = j
		}
	}
	s := sortedCopy(w.samples[best*n : (best+1)*n])
	values["ops_per_s"] = float64(n) / w.passes[best]
	values["op_p50_ms"] = percentile(s, 0.5) * 1e3
	values["op_tail_ms"] = percentile(s, p) * 1e3
	fmt.Fprintf(log, "pass seconds %.3f: the fastest, pass %d, gives ops_per_s, op_p50_ms and op_tail_ms (p%g of %d samples)\n",
		w.passes, best+1, p*100, n)
	return nil
}

// slowPercentile measures a CPU-time window on the slowRank-th percentile
// of its repetitions: each net's latency is that percentile of its samples,
// op_p50_ms and op_tail_ms are percentiles of the per-net latencies, and
// ops_per_s is the corpus size over that percentile of the pass durations.
// CPU time leaves out the time the host takes the CPU away; what remains
// is a CPU that runs at one of two speeds, and the upper percentile reads
// the slower one, which every run sees.
func (w *window) slowPercentile(values map[string]float64, n int, p float64, log io.Writer) error {
	perNet := make([]float64, n)
	reps := make([]float64, len(w.passes))
	for i := range perNet {
		for j := range reps {
			reps[j] = w.samples[j*n+i]
		}
		perNet[i] = slowQuantile(reps)
	}
	s := sortedCopy(perNet)
	pass := slowQuantile(w.passes)
	values["ops_per_s"] = float64(n) / pass
	values["op_p50_ms"] = percentile(s, 0.5) * 1e3
	values["op_tail_ms"] = percentile(s, p) * 1e3
	fmt.Fprintf(log, "pass seconds %.3f: ops_per_s from their p%g, %.3f s; op_p50_ms and op_tail_ms (p%g) over the %d nets' p%g latencies\n",
		w.passes, slowRank*100, pass, p*100, n, slowRank*100)
	return nil
}

// allocMiBPerOp is the heap allocated per op during the window.
func (w *window) allocMiBPerOp() float64 {
	return float64(w.rt.allocBytes) / (1 << 20) / float64(w.attempted())
}

// gcMetrics adds the per-op garbage-collection figures.
func (w *window) gcMetrics(values map[string]float64) {
	n := float64(w.attempted())
	values["go.gc_cycles_per_op"] = float64(w.rt.gcCycles) / n
	values["go.gc_pause_ms_per_op"] = float64(w.rt.pauseNs) / 1e6 / n
}
