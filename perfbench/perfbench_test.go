package main

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"testing"

	"nontree"
	"nontree/internal/serve"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for n := 1; n <= 20000; n++ {
		p, err := tailPercentile(n)
		if err != nil {
			if n-1-rank(0.5, n) >= minBeyond {
				t.Fatalf("n=%d: %v", n, err)
			}
			continue
		}
		if beyond := n - 1 - rank(p, n); beyond < minBeyond {
			t.Fatalf("n=%d: p%g leaves %d samples beyond it", n, p*100, beyond)
		}
		for _, q := range tailLadder {
			if q > p && n-1-rank(q, n) >= minBeyond {
				t.Fatalf("n=%d: chose p%g though p%g also leaves %d beyond", n, p*100, q*100, minBeyond)
			}
		}
	}
	if _, err := tailPercentile(2*minBeyond - 1); err == nil {
		t.Errorf("%d samples: want an error, since even the median leaves fewer than %d beyond", 2*minBeyond-1, minBeyond)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each xs.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3, 5}, [3]float64{2, 5, 8.5}},
		{[]float64{4, 2}, [3]float64{1.5, 3, 4.5}},
	}
	for _, c := range cases {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestCorpusFingerprintFollowsSeed(t *testing.T) {
	fp := func(seed int64) string {
		nets, err := makeCorpus(seed, 16, 20)
		if err != nil {
			t.Fatal(err)
		}
		return corpusFingerprint(nets)
	}
	if a, b := fp(7), fp(7); a != b {
		t.Errorf("seed 7 gave corpora %s and %s", a, b)
	}
	if a, b := fp(7), fp(8); a == b {
		t.Errorf("seeds 7 and 8 gave the same corpus %s", a)
	}
}

func routed(t *testing.T, op batchOp, pins int) (*nontree.Net, *outcome) {
	t.Helper()
	nets, err := makeCorpus(3, 1, pins)
	if err != nil {
		t.Fatal(err)
	}
	out, err := op(nets[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyOutcome(nets[0], out); err != nil {
		t.Fatalf("unmodified result rejected: %v", err)
	}
	return nets[0], out
}

func TestVerificationRejectsCorruptedResults(t *testing.T) {
	net, out := routed(t, ldrgOp, 20)
	if len(out.res.AddedEdges) == 0 {
		t.Fatal("test net gained no edges; pick another seed")
	}

	dropSeed := *out
	res := *out.res
	res.Topology = out.res.Topology.Clone()
	if err := res.Topology.RemoveEdge(out.seed.Edges()[0]); err != nil {
		t.Fatal(err)
	}
	dropSeed.res = &res
	if verifyOutcome(net, &dropSeed) == nil {
		t.Error("verification accepted a result missing a seed edge")
	}
	if sameOutcome(out, &dropSeed) {
		t.Error("sameOutcome missed a dropped edge")
	}

	dropAdded := *out
	res = *out.res
	res.Topology = out.res.Topology.Clone()
	if err := res.Topology.RemoveEdge(out.res.AddedEdges[0]); err != nil {
		t.Fatal(err)
	}
	dropAdded.res = &res
	if verifyOutcome(net, &dropAdded) == nil {
		t.Error("verification accepted a result missing an added edge")
	}

	perturbed := *out
	res = *out.res
	res.FinalObjective *= 1 + 1e-6
	perturbed.res = &res
	if verifyOutcome(net, &perturbed) == nil {
		t.Error("verification accepted a perturbed objective")
	}
	if sameOutcome(out, &perturbed) {
		t.Error("sameOutcome missed a perturbed objective")
	}
}

func TestTracedSplitsMatchFacade(t *testing.T) {
	for name, op := range map[string]batchOp{"sldrg": sldrgOp, "measure": measureOp} {
		nets, err := makeCorpus(5, 2, 12)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range nets {
			plain, err := op(n, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := op(n, &tracedOp{tr: tr, rec: nontree.NewMetrics(), parent: tr.start("op", 0, 0)})
			if err != nil {
				t.Fatal(err)
			}
			if !sameSplit(plain, traced) || !sameOutcome(plain, traced) {
				t.Errorf("%s net %d: traced split differs from the facade call", name, i)
			}
			if len(tr.spans) < 3 {
				t.Errorf("%s: %d spans recorded, want the op and its layer calls", name, len(tr.spans))
			}
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 50, End: 90},
	}
	got := selfTimes(spans)
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"op self", got["op"].Self, 30e-9}, {"a self", got["a"].Self, 30e-9}, {"b total", got["b"].Total, 40e-9}} {
		if math.Abs(c.got-c.want) > 1e-15 {
			t.Errorf("%s = %g s, want %g s", c.name, c.got, c.want)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the repository's BENCHMARK.json and
// the metrics this program prints in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); len(got) != len(want) || !equalAsSets(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", got, want)
	}
	for _, c := range []struct {
		spec, prog []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.prog) {
			t.Errorf("BENCHMARK.json lists %d metrics, program prints %d", len(c.spec), len(c.prog))
			continue
		}
		for i := range c.spec {
			if c.spec[i] != c.prog[i] {
				t.Errorf("metric %d: BENCHMARK.json %v, program %v", i, c.spec[i], c.prog[i])
			}
		}
	}
}

func equalAsSets(a, b []string) bool {
	seen := map[string]bool{}
	for _, s := range a {
		seen[s] = true
	}
	for _, s := range b {
		if !seen[s] {
			return false
		}
	}
	return len(seen) == len(b)
}

// TestDaemonWindowRunsWholePasses drives a small closed loop from several
// clients at once; run it with -race.
func TestDaemonWindowRunsWholePasses(t *testing.T) {
	nets, err := makeCorpus(9, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newDaemon(nets)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nets {
		rr, err := serve.Run(n, serve.RouteOptions{}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		d.refs = append(d.refs, rr)
	}
	tr := newTracer()
	win, stats := d.window(3, tr)
	if n := win.attempted(); n != 3*len(nets) || len(win.passes) != 3 {
		t.Fatalf("%d requests in %d passes: want 3 whole passes over %d nets", n, len(win.passes), len(nets))
	}
	reads, ok := 0, 0
	for _, st := range stats {
		reads += st.reads
		ok += st.ok
	}
	if _, bad := d.verify(nets, stats, win.attempted()/len(nets), io.Discard); bad != 0 || ok != win.attempted() {
		t.Errorf("%d of %d requests failed verification, %d ok", bad, win.attempted(), ok)
	}
	if want := win.attempted() + 2*reads; len(tr.spans) != want {
		t.Errorf("%d spans, want %d: one per request and two per read-back", len(tr.spans), want)
	}
}

func TestCPUTimeSpeedMetricsUseSlowPercentile(t *testing.T) {
	w := &window{passes: []float64{3, 10, 1, 9, 4, 2, 8, 5, 7, 6}}
	for j := range w.passes {
		for i := 1; i <= 40; i++ {
			w.samples = append(w.samples, float64(i)*float64(j+1)/1e3)
		}
	}
	v := map[string]float64{}
	if err := w.speedMetrics(v, io.Discard); err != nil {
		t.Fatal(err)
	}
	// Net i took i, 2i, …, 10i ms; the p90 of its ten passes is 9i ms.
	// The p90 pass took 9 s.
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if !near(v["ops_per_s"], 40.0/9) || !near(v["op_p50_ms"], 180) || !near(v["op_tail_ms"], 270) {
		t.Errorf("got ops_per_s %g, p50 %g ms, tail %g ms; want 40/9, 180 and 270 (p75 of 9i ms)",
			v["ops_per_s"], v["op_p50_ms"], v["op_tail_ms"])
	}
}

func TestWallClockSpeedMetricsUseFastestPass(t *testing.T) {
	w := &window{wallClock: true, passes: []float64{3, 2, 4}}
	for j := 0; j < 3; j++ {
		for i := 1; i <= 40; i++ {
			w.samples = append(w.samples, float64(i)*float64(j+1)/1e3)
		}
	}
	v := map[string]float64{}
	if err := w.speedMetrics(v, io.Discard); err != nil {
		t.Fatal(err)
	}
	// Pass 2 (index 1) is fastest; its samples are 2, 4, …, 80 ms.
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	if !near(v["ops_per_s"], 20) || !near(v["op_p50_ms"], 40) || !near(v["op_tail_ms"], 60) {
		t.Errorf("got ops_per_s %g, p50 %g ms, tail %g ms; want 20, 40 and 60 (p75 of pass 2)",
			v["ops_per_s"], v["op_p50_ms"], v["op_tail_ms"])
	}
}

func TestRouteRestCountsFailedNets(t *testing.T) {
	nets, err := makeCorpus(3, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	w := &workload{op: func(net *nontree.Net, _ *tracedOp) (*outcome, error) {
		switch net {
		case nets[1]:
			return nil, errors.New("routing failed")
		case nets[2]:
			out, err := ldrgOp(net, nil)
			if err == nil {
				out.res.FinalObjective *= 1.5
			}
			return out, err
		}
		return ldrgOp(net, nil)
	}}
	outs, bad := routeRest(w, nets, 0, io.Discard)
	if bad != 2 || outs[0] == nil || outs[1] != nil || outs[2] != nil {
		t.Errorf("%d failed, outcomes %v: want the failed and the perturbed net rejected", bad, outs)
	}
}

func TestPassCountFollowsSecondsOnly(t *testing.T) {
	w := &workload{pass: 2.5}
	for _, c := range []struct {
		seconds float64
		traced  bool
		want    int
	}{{25, false, 10}, {25, true, 5}, {26, false, 10}, {1, false, 2}, {1, true, 2}} {
		if got := w.passCount(runOpts{seconds: c.seconds, traced: c.traced}); got != c.want {
			t.Errorf("%gs traced=%v: %d passes, want %d", c.seconds, c.traced, got, c.want)
		}
	}
}
