package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"nontree"
	"nontree/internal/core"
	"nontree/internal/obs"
	"nontree/internal/rc"
	"nontree/internal/steiner"
)

// outcome is one routed net: the tree the search started from, the
// search's result and, on batch-measure, the simulated delays of both.
type outcome struct {
	seed                *nontree.Topology
	res                 *nontree.Result
	seedDelay, resDelay *nontree.DelayReport
}

// tracedOp carries one traced op's span context and recorder. A nil
// *tracedOp means the op is untraced and calls the facade as a user would.
type tracedOp struct {
	tr         *tracer
	op, parent int
	rec        *nontree.Metrics
}

// time runs f inside a span named for the layer entry point it calls.
func (t *tracedOp) time(name string, f func() error) error {
	if t == nil {
		return f()
	}
	id := t.tr.start(name, t.op, t.parent)
	defer t.tr.end(id)
	return f()
}

// recorder is the Config.Obs of a traced op (nil untraced).
func (t *tracedOp) recorder() nontree.Recorder {
	if t == nil || t.rec == nil {
		return nil
	}
	return t.rec
}

// batchOp routes one net.
type batchOp func(net *nontree.Net, t *tracedOp) (*outcome, error)

// sldrgOp is nontree.SLDRG. Traced, it is split into steiner.Tree then
// core.LDRG with the facade's default options, which is exactly what
// core.SLDRG does, so the result must not change.
func sldrgOp(net *nontree.Net, t *tracedOp) (*outcome, error) {
	if t == nil {
		sr, err := nontree.SLDRG(net, nontree.Config{})
		if err != nil {
			return nil, err
		}
		return &outcome{seed: sr.Seed, res: &sr.Result}, nil
	}
	var out outcome
	err := t.time("steiner.Tree", func() (err error) {
		out.seed, err = steiner.Tree(net.Pins, steiner.Options{})
		return err
	})
	if err != nil {
		return nil, err
	}
	err = t.time("core.LDRG", func() (err error) {
		oracle := &core.ElmoreOracle{Params: nontree.DefaultParams(), Obs: t.rec}
		out.res, err = core.LDRG(out.seed, core.Options{Oracle: oracle, Obs: t.rec})
		return err
	})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// ldrgOp is nontree.MST then nontree.LDRG with the default Config.
func ldrgOp(net *nontree.Net, t *tracedOp) (*outcome, error) {
	var out outcome
	err := t.time("mst.Prim", func() (err error) {
		out.seed, err = nontree.MST(net)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = t.time("core.LDRG", func() (err error) {
		out.res, err = nontree.LDRG(out.seed, nontree.Config{Obs: t.recorder()})
		return err
	})
	if err != nil {
		return nil, err
	}
	return &out, nil
}

// measureOp is ldrgOp followed by nontree.MeasureDelay of the seed and of
// the result, the paper's SPICE-measured comparison.
func measureOp(net *nontree.Net, t *tracedOp) (*outcome, error) {
	out, err := ldrgOp(net, t)
	if err != nil {
		return nil, err
	}
	p := nontree.DefaultParams()
	err = t.time("spice.SinkDelays", func() (err error) {
		out.seedDelay, err = measureDelay(out.seed, p, t)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = t.time("spice.SinkDelays", func() (err error) {
		out.resDelay, err = measureDelay(out.res.Topology, p, t)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// measureDelay is nontree.MeasureDelay. Traced, it calls the spice oracle
// the facade wraps, with a recorder attached, and builds the report the
// way the facade does.
func measureDelay(top *nontree.Topology, p nontree.Params, t *tracedOp) (*nontree.DelayReport, error) {
	if t == nil {
		return nontree.MeasureDelay(top, p)
	}
	delays, err := (&core.SpiceOracle{Params: p, Obs: t.rec}).SinkDelays(top, nil)
	if err != nil {
		return nil, err
	}
	rep := &nontree.DelayReport{Wirelength: top.Cost()}
	for n := 1; n < top.NumPins(); n++ {
		rep.PerSink = append(rep.PerSink, delays[n])
		rep.Max = max(rep.Max, delays[n])
	}
	return rep, nil
}

// batchWindow routes the given number of whole passes over nets. The first
// successful result for each net becomes refs[i]; every later one must
// equal it bit for bit. It returns the window and each net's failed ops.
func batchWindow(w *workload, nets []*nontree.Net, refs []*outcome, passes int,
	tr *tracer, rec *nontree.Metrics, log io.Writer) (*window, []int) {

	win := &window{}
	failed := make([]int, len(nets))
	runtime.GC()
	before := readRuntime()
	t0 := time.Now()
	for pass := 1; pass <= passes; pass++ {
		busy0 := win.busy
		for i, net := range nets {
			var t *tracedOp
			op := len(win.samples)
			if tr != nil {
				t = &tracedOp{tr: tr, op: op, rec: rec, parent: tr.start("op", op, 0)}
			}
			start := cpuSeconds()
			out, err := w.op(net, t)
			d := cpuSeconds() - start
			if t != nil {
				tr.end(t.parent)
			}
			win.samples = append(win.samples, d)
			win.busy += d
			switch {
			case err != nil:
				failed[i]++
				fmt.Fprintf(log, "net %d: %v\n", i, err)
			case refs[i] == nil:
				refs[i] = out
			case !sameOutcome(refs[i], out):
				failed[i]++
				fmt.Fprintf(log, "net %d: pass %d differs from the first\n", i, pass)
			}
		}
		win.passes = append(win.passes, win.busy-busy0)
	}
	win.wall = time.Since(t0).Seconds()
	win.rt = readRuntime().since(before)
	fmt.Fprintf(log, "window: %d passes, %.3f s wall, %.3f CPU-seconds in ops\n", passes, win.wall, win.busy)
	return win, failed
}

// runBatch runs a single-goroutine batch workload. It runs on one CPU, the
// garbage collector included, so load on the other CPUs of a shared host
// does not stall the collector's background workers (README.md,
// "Steadiness").
func runBatch(w *workload, o runOpts) (*report, error) {
	runtime.GOMAXPROCS(1)
	var nets, rest []*nontree.Net
	setup, err := timeSetup(func() error {
		all, err := makeCorpus(o.seed, max(w.quality, w.corpus), w.pins)
		if err != nil {
			return err
		}
		nets, rest = all[:w.corpus], all[w.corpus:]
		warm, err := makeCorpus(warmSeed, w.warm, w.pins)
		if err != nil {
			return err
		}
		for _, n := range warm {
			if _, err := w.op(n, nil); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	}, o.log)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.log, "%s: corpus %s of %d %d-pin nets\n", w.name, corpusFingerprint(nets), len(nets), w.pins)

	passes := w.passCount(o)
	refs := make([]*outcome, len(nets))
	plain, failed := batchWindow(w, nets, refs, passes, nil, nil, o.log)
	heap := liveHeapMiB()
	bad := verifyBatch(nets, refs, failed, plain.attempted()/len(nets), o.log)
	more, moreBad := routeRest(w, rest, len(nets), o.log)
	sample := append(append([]*outcome(nil), refs...), more...)
	bad += moreBad
	attempted := plain.attempted() + len(rest)

	if !o.traced {
		values := map[string]float64{
			"setup_s":          setup,
			"ok_ratio":         1 - float64(bad)/float64(attempted),
			"alloc_mb_per_op":  plain.allocMiBPerOp(),
			"heap_retained_mb": heap,
		}
		values["delay_ratio"], values["cost_ratio"] = qualityRatios(sample)
		if err := plain.speedMetrics(values, o.log); err != nil {
			return nil, err
		}
		return newReport(endToEnd, values, attempted, bad)
	}

	tr := newTracer()
	rec := nontree.NewMetrics()
	trefs := make([]*outcome, len(nets))
	traced, tfailed := batchWindow(w, nets, trefs, passes, tr, rec, o.log)
	tbad := 0
	for i := range nets {
		switch {
		case trefs[i] == nil:
			tbad += traced.attempted() / len(nets)
		case refs[i] != nil && !sameSplit(refs[i], trefs[i]):
			fmt.Fprintf(o.log, "net %d: traced split differs from the untraced call\n", i)
			tbad += traced.attempted() / len(nets)
		default:
			tbad += tfailed[i]
		}
	}
	if tbad == 0 {
		fmt.Fprintf(o.log, "split entry points reproduce all %d untraced fingerprints\n", len(nets))
	}
	values := batchLayerMetrics(traced, plain, selfTimes(tr.spans), rec.Snapshot().Counters, refs)
	fmt.Fprintf(o.log, "self time, traced run (%d ops):\n", traced.attempted())
	printSelfTimes(o.log, selfTimes(tr.spans), traced.busy)
	if err := writeSpans(o.spans, tr.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.log, "spans written to %s\n", o.spans)
	return newReport(perLayer, values, attempted+traced.attempted(), bad+tbad)
}

// routeRest routes each net of rest, numbered from first on, once and
// untimed, verifies the outcomes like the corpus's, and returns them with
// the number that failed.
func routeRest(w *workload, rest []*nontree.Net, first int, log io.Writer) ([]*outcome, int) {
	outs := make([]*outcome, len(rest))
	bad := 0
	for i, net := range rest {
		out, err := w.op(net, nil)
		if err == nil {
			err = verifyOutcome(net, out)
		}
		if err != nil {
			fmt.Fprintf(log, "net %d: %v\n", first+i, err)
			bad++
			continue
		}
		outs[i] = out
	}
	fmt.Fprintf(log, "quality sample: the corpus and %d more nets routed once each\n", len(rest))
	return outs, bad
}

// qualityRatios returns the mean over nets of final over initial delay
// (simulated where measured, else the steering objective) and of final
// over seed wirelength.
func qualityRatios(refs []*outcome) (delay, cost float64) {
	n := 0
	for _, r := range refs {
		if r == nil {
			continue
		}
		n++
		if r.seedDelay != nil {
			delay += r.resDelay.Max / r.seedDelay.Max
		} else {
			delay += r.res.FinalObjective / r.res.InitialObjective
		}
		cost += r.res.Topology.Cost() / r.seed.Cost()
	}
	return ratio(delay, float64(n)), ratio(cost, float64(n))
}

// batchLayerMetrics computes the per-layer metrics of a batch workload
// from its traced window, its untraced window (the GC figures and the
// tracing overhead) and the recorder's counters.
func batchLayerMetrics(traced, plain *window, times map[string]*layerTime, c map[string]int64, refs []*outcome) map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.Name] = 0
	}
	n := float64(traced.attempted())
	total := func(name string) float64 {
		if lt := times[name]; lt != nil {
			return lt.Total
		}
		return 0
	}
	opTime := total("op")
	v["steiner.tree_ms"] = total("steiner.Tree") / n * 1e3
	v["steiner.share"] = ratio(total("steiner.Tree"), opTime)
	v["core.ldrg_ms"] = total("core.LDRG") / n * 1e3
	v["core.search_share"] = ratio(total("core.LDRG"), opTime)
	v["spice.measure_ms"] = total("spice.SinkDelays") / n * 1e3
	v["spice.share"] = ratio(total("spice.SinkDelays"), opTime)
	v["mst.prim_ms"] = total("mst.Prim") / n * 1e3
	counterMetrics(v, c, n)

	dim := meanMNADim(refs)
	v["spice.mna_dim"] = dim
	// Computed, not counted: a dense transient step is one matrix-vector
	// product and one LU solve (4d² flops), a factorization (2/3)d³, and a
	// DC solve one factorization plus one solve.
	steps, facts, dc := float64(c[obs.CtrTranSteps]), float64(c[obs.CtrMNAFactorizations]), float64(c[obs.CtrMeasureDCSolves])
	v["spice.dense_mflop_per_op"] = (steps*4*dim*dim + (facts+dc)*2*dim*dim*dim/3 + dc*2*dim*dim) / 1e6 / n

	var points, routed int
	for _, r := range refs {
		if r != nil {
			points += r.seed.NumNodes() - r.seed.NumPins()
			routed++
		}
	}
	v["steiner.points_per_op"] = ratio(float64(points), float64(routed))
	plain.gcMetrics(v)
	v["bench.tracing_overhead"] = traced.busy/n/(plain.busy/float64(plain.attempted())) - 1
	return v
}

// counterMetrics adds the metrics read from the program's obs counters,
// as deltas over n ops.
func counterMetrics(v map[string]float64, c map[string]int64, n float64) {
	per := func(name string) float64 { return float64(c[name]) / n }
	v["core.oracle_evals_per_op"] = per(obs.CtrOracleEvaluations)
	v["core.candidates_per_op"] = per(obs.CtrSweepCandidates)
	v["core.pruned_ratio"] = ratio(float64(c[obs.CtrCandidatesPruned]), float64(c[obs.CtrSweepCandidates]))
	v["core.accept_ratio"] = ratio(float64(c[obs.CtrAcceptedEdges]), float64(c[obs.CtrSweepCandidates]-c[obs.CtrCandidatesPruned]))
	v["elmore.incr_evals_per_op"] = per(obs.CtrIncrementalEvals)
	v["elmore.cache_hit_ratio"] = ratio(float64(c[obs.CtrIncrementalHits]), float64(c[obs.CtrIncrementalHits]+c[obs.CtrIncrementalMisses]))
	v["elmore.factorizations_per_op"] = per(obs.CtrIncrementalFactorizations)
	v["elmore.graph_solves_per_op"] = per(obs.CtrElmoreSolves)
	v["spice.tran_steps_per_op"] = per(obs.CtrTranSteps)
	v["spice.mna_factorizations_per_op"] = per(obs.CtrMNAFactorizations)
	v["spice.mna_solves_per_op"] = per(obs.CtrMNASolves)
	v["spice.horizon_retry_ratio"] = ratio(float64(c[obs.CtrMeasureRetries]), float64(c[obs.CtrMeasureRuns]))
}

// meanMNADim is the mean MNA dimension of the circuits measured for refs,
// or 0 when nothing was measured.
func meanMNADim(refs []*outcome) float64 {
	var sum, n float64
	for _, r := range refs {
		if r == nil || r.seedDelay == nil {
			continue
		}
		for _, t := range []*nontree.Topology{r.seed, r.res.Topology} {
			cm, err := rc.BuildCircuit(t, nontree.DefaultParams(), rc.BuildOpts{})
			if err != nil {
				continue
			}
			_, _, l, vs, _ := cm.Circuit.Counts()
			sum += float64(cm.Circuit.NumNodes() - 1 + l + vs)
			n++
		}
	}
	return ratio(sum, n)
}
