package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"nontree"
	"nontree/internal/obs"
	"nontree/internal/olog"
	"nontree/internal/serve"
)

// readEvery is how many replies a client takes between reads of one
// request's wide event and trace.
const readEvery = 8

// daemonClients is the closed loop's client count: two, the CPU count of
// the host the workload was sized on, and never more than the CPUs here.
func daemonClients() int { return min(2, runtime.NumCPU()) }

// daemon is an in-process serve.Server with default Options and the
// encoded /route request of each corpus net (LDRG, elmore oracle).
type daemon struct {
	srv    *serve.Server
	client *http.Client
	bodies [][]byte
	refs   []*serve.RouteResult // serve.Run on each request
}

func newDaemon(nets []*nontree.Net) (*daemon, error) {
	srv := serve.New(serve.Options{})
	d := &daemon{srv: srv, client: &http.Client{Transport: srv.InProcessTransport()}}
	for _, n := range nets {
		body, err := json.Marshal(serve.RouteRequest{Net: n})
		if err != nil {
			return nil, err
		}
		d.bodies = append(d.bodies, body)
	}
	return d, nil
}

// do sends one request through the in-process transport and reads the
// whole reply.
func (d *daemon) do(method, path string, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequest(method, "http://perfbench"+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp, b, err
}

// clientStats is what one client recorded in a window.
type clientStats struct {
	samples []opSample
	failed  []int // per net
	ok      int
	phases  serve.PhaseBreakdown // sums over ok replies
	// unattributed sums client latency minus the server's total: response
	// encoding, transport and the client itself.
	unattributed       float64
	traceEvents        int
	reads              int
	readLog, readTrace float64 // seconds
	errs               []string
}

func (st *clientStats) fail(i int, err error) {
	st.failed[i]++
	if len(st.errs) < 5 {
		st.errs = append(st.errs, fmt.Sprintf("net %d: %v", i, err))
	}
}

// opSample is one request's op number and latency in seconds.
type opSample struct {
	k int
	d float64
}

// dispatcher hands out op numbers for a fixed number of whole passes over
// an n-net corpus.
type dispatcher struct {
	mu              sync.Mutex
	n, passes, next int
	starts          []time.Time // when each pass began
}

func (p *dispatcher) take() (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.next == p.n*p.passes {
		return 0, false
	}
	if p.next%p.n == 0 {
		p.starts = append(p.starts, time.Now())
	}
	p.next++
	return p.next - 1, true
}

// runClient is one closed-loop client: it posts the next net's /route request
// as soon as the previous reply is in, and after every readEvery-th reply
// reads that request's wide event and trace.
func (d *daemon) runClient(p *dispatcher, tr *tracer, st *clientStats) {
	replies := 0
	for {
		k, ok := p.take()
		if !ok {
			return
		}
		i := k % len(d.bodies)
		id := tr.start("serve.client", k, 0)
		t0 := time.Now()
		resp, body, err := d.do(http.MethodPost, "/route", d.bodies[i])
		dt := time.Since(t0).Seconds()
		tr.end(id)
		st.samples = append(st.samples, opSample{k, dt})
		var rr *serve.RouteResponse
		if err == nil {
			rr, err = d.checkReply(i, resp, body)
		}
		if err != nil {
			st.fail(i, err)
			continue
		}
		if replies++; replies%readEvery == 0 {
			if err := d.readBack(rr, k, tr, st); err != nil {
				st.fail(i, err)
				continue
			}
		}
		st.add(&clientStats{ok: 1, phases: *rr.Phases, unattributed: dt - rr.Phases.TotalSeconds, traceEvents: rr.TraceEvents})
	}
}

// add accumulates o's counts and sums into st.
func (st *clientStats) add(o *clientStats) {
	st.ok += o.ok
	st.phases.QueueSeconds += o.phases.QueueSeconds
	st.phases.DecodeSeconds += o.phases.DecodeSeconds
	st.phases.SweepSeconds += o.phases.SweepSeconds
	st.phases.OracleSeconds += o.phases.OracleSeconds
	st.phases.StoreSeconds += o.phases.StoreSeconds
	st.phases.TotalSeconds += o.phases.TotalSeconds
	st.unattributed += o.unattributed
	st.traceEvents += o.traceEvents
	st.reads += o.reads
	st.readLog += o.readLog
	st.readTrace += o.readTrace
}

// checkReply checks a /route reply against serve.Run on the same request
// and its X-Request-ID header against its request_id.
func (d *daemon) checkReply(i int, resp *http.Response, body []byte) (*serve.RouteResponse, error) {
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/route answered %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var rr serve.RouteResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return nil, fmt.Errorf("decoding /route reply: %w", err)
	}
	switch {
	case resp.Header.Get("X-Request-ID") != rr.RequestID:
		return nil, fmt.Errorf("X-Request-ID %q differs from request_id %q", resp.Header.Get("X-Request-ID"), rr.RequestID)
	case rr.RouteResult == nil || !sameRouteResult(d.refs[i], rr.RouteResult):
		return nil, errors.New("/route reply differs from serve.Run on the same request")
	case rr.Phases == nil:
		return nil, errors.New("/route reply has no phases")
	}
	return &rr, nil
}

// readBack reads a request's wide event at /logs and its trace at /traces
// and checks that they describe the reply.
func (d *daemon) readBack(rr *serve.RouteResponse, k int, tr *tracer, st *clientStats) error {
	id := tr.start("serve.read_log", k, 0)
	t0 := time.Now()
	resp, body, err := d.do(http.MethodGet, "/logs?request="+rr.RequestID, nil)
	st.readLog += time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		return err
	}
	ev, err := olog.DecodeEvent(bytes.TrimSpace(body))
	if resp.StatusCode != http.StatusOK || err != nil {
		return fmt.Errorf("/logs?request=%s answered %d (%v)", rr.RequestID, resp.StatusCode, err)
	}
	if ev.RequestID != rr.RequestID || ev.TraceID != rr.TraceID || ev.Outcome != olog.OutcomeOK {
		return fmt.Errorf("wide event %s/%s/%s does not describe reply %s/%s", ev.RequestID, ev.TraceID, ev.Outcome, rr.RequestID, rr.TraceID)
	}

	id = tr.start("serve.read_trace", k, 0)
	t0 = time.Now()
	resp, body, err = d.do(http.MethodGet, "/traces/"+rr.TraceID, nil)
	st.readTrace += time.Since(t0).Seconds()
	tr.end(id)
	st.reads++
	if err != nil {
		return err
	}
	if got := bytes.Count(body, []byte{'\n'}); resp.StatusCode != http.StatusOK || got != rr.TraceEvents {
		return fmt.Errorf("/traces/%s answered %d with %d events, reply said %d", rr.TraceID, resp.StatusCode, got, rr.TraceEvents)
	}
	return nil
}

func sameRouteResult(a, b *serve.RouteResult) bool {
	return a.Algo == b.Algo && a.Oracle == b.Oracle && a.Evaluations == b.Evaluations &&
		sameFloat(a.InitialObjective, b.InitialObjective) && sameFloat(a.FinalObjective, b.FinalObjective) &&
		slices.Equal(a.Nodes, b.Nodes) && slices.Equal(a.Edges, b.Edges) && slices.Equal(a.AddedEdges, b.AddedEdges)
}

// matchesDirect reports whether serve.Run decided what a direct facade
// call decided.
func matchesDirect(rr *serve.RouteResult, out *outcome) bool {
	t := out.res.Topology
	if len(rr.Nodes) != t.NumNodes() || len(rr.AddedEdges) != len(out.res.AddedEdges) ||
		!sameFloat(rr.InitialObjective, out.res.InitialObjective) || !sameFloat(rr.FinalObjective, out.res.FinalObjective) {
		return false
	}
	for n, node := range rr.Nodes {
		if p := t.Point(n); p.X != node.X || p.Y != node.Y {
			return false
		}
	}
	for i, e := range out.res.AddedEdges {
		if (serve.EdgeRef{U: e.U, V: e.V}) != rr.AddedEdges[i] {
			return false
		}
	}
	edges := t.Edges()
	if len(edges) != len(rr.Edges) {
		return false
	}
	for i, e := range edges {
		if (serve.EdgeRef{U: e.U, V: e.V}) != rr.Edges[i] {
			return false
		}
	}
	return true
}

// window runs the closed loop for the given number of passes.
func (d *daemon) window(passes int, tr *tracer) (*window, []clientStats) {
	runtime.GC()
	before := readRuntime()
	now := time.Now()
	p := &dispatcher{n: len(d.bodies), passes: passes}
	stats := make([]clientStats, daemonClients())
	var wg sync.WaitGroup
	for c := range stats {
		stats[c].failed = make([]int, len(d.bodies))
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.runClient(p, tr, &stats[c])
		}()
	}
	wg.Wait()
	end := time.Now()
	win := &window{wallClock: true, wall: end.Sub(now).Seconds(), rt: readRuntime().since(before), samples: make([]float64, p.next)}
	for _, st := range stats {
		for _, s := range st.samples {
			win.samples[s.k] = s.d
			win.busy += s.d
		}
	}
	for j, start := range p.starts {
		stop := end
		if j+1 < len(p.starts) {
			stop = p.starts[j+1]
		}
		win.passes = append(win.passes, stop.Sub(start).Seconds())
	}
	return win, stats
}

// scrapeCounters reads every catalogued counter from /metrics.
func (d *daemon) scrapeCounters() (map[string]int64, error) {
	resp, body, err := d.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	byProm := map[string]string{}
	for _, name := range append(obs.CounterNames(), obs.ServeCounterNames()...) {
		byProm["nontree_"+strings.ReplaceAll(name, ".", "_")+"_total"] = name
	}
	out := map[string]int64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || byProm[f[0]] == "" {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %s: %w", f[0], err)
		}
		out[byProm[f[0]]] = int64(v)
	}
	return out, nil
}

// runDaemon runs the route-daemon workload.
func runDaemon(w *workload, o runOpts) (*report, error) {
	var nets []*nontree.Net
	var d *daemon
	setup, err := timeSetup(func() error {
		var err error
		if nets, err = makeCorpus(o.seed, w.corpus, w.pins); err != nil {
			return err
		}
		if d, err = newDaemon(nets); err != nil {
			return err
		}
		warm, err := makeCorpus(warmSeed, w.warm, w.pins)
		if err != nil {
			return err
		}
		for _, n := range warm {
			body, err := json.Marshal(serve.RouteRequest{Net: n})
			if err != nil {
				return err
			}
			resp, body, err := d.do(http.MethodPost, "/route", body)
			if err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("warm-up: /route answered %d: %s", resp.StatusCode, body)
			}
		}
		return nil
	}, o.log)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.log, "%s: corpus %s of %d %d-pin nets, %d clients\n", w.name, corpusFingerprint(nets), len(nets), w.pins, daemonClients())
	for _, n := range nets {
		rr, err := serve.Run(n, serve.RouteOptions{}, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("serve.Run: %w", err)
		}
		d.refs = append(d.refs, rr)
	}

	passes := w.passCount(o)
	plain, stats := d.window(passes, nil)
	heap := liveHeapMiB()
	runtime.KeepAlive(d)
	direct, bad := d.verify(nets, stats, plain.attempted()/len(nets), o.log)

	if !o.traced {
		values := map[string]float64{
			"setup_s":          setup,
			"ok_ratio":         1 - float64(bad)/float64(plain.attempted()),
			"alloc_mb_per_op":  plain.allocMiBPerOp(),
			"heap_retained_mb": heap,
		}
		values["delay_ratio"], values["cost_ratio"] = qualityRatios(direct)
		if err := plain.speedMetrics(values, o.log); err != nil {
			return nil, err
		}
		return newReport(endToEnd, values, plain.attempted(), bad)
	}

	tr := newTracer()
	c0, err := d.scrapeCounters()
	if err != nil {
		return nil, err
	}
	traced, tstats := d.window(passes, tr)
	c1, err := d.scrapeCounters()
	if err != nil {
		return nil, err
	}
	_, tbad := d.verify(nets, tstats, traced.attempted()/len(nets), o.log)
	for name := range c1 {
		c1[name] -= c0[name]
	}
	values := daemonLayerMetrics(traced, plain, tstats, c1)

	// The same routing called directly, once per net: the difference from
	// serve.client_ms is what the daemon adds.
	nspans := len(tr.spans)
	for i, n := range nets {
		op := traced.attempted() + i
		root := tr.start("direct", op, 0)
		_, err := ldrgOp(n, &tracedOp{tr: tr, op: op, parent: root})
		tr.end(root)
		if err != nil {
			return nil, err
		}
	}
	dt := selfTimes(tr.spans[nspans:])
	values["mst.prim_ms"] = dt["mst.Prim"].Total / float64(len(nets)) * 1e3
	values["core.ldrg_ms"] = dt["core.LDRG"].Total / float64(len(nets)) * 1e3
	fmt.Fprintf(o.log, "self time, traced run (%d requests):\n", traced.attempted())
	printSelfTimes(o.log, selfTimes(tr.spans[:nspans]), traced.wall*float64(daemonClients()))
	fmt.Fprintf(o.log, "self time, direct calls (%d nets):\n", len(nets))
	printSelfTimes(o.log, dt, dt["direct"].Total)
	if err := writeSpans(o.spans, tr.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.log, "spans written to %s\n", o.spans)
	return newReport(perLayer, values, plain.attempted()+traced.attempted(), bad+tbad)
}

// verify checks each net directly: nontree.MST then nontree.LDRG must pass
// the batch checks and decide exactly what serve.Run decided. It returns
// the direct outcomes and the failed ops of the window.
func (d *daemon) verify(nets []*nontree.Net, stats []clientStats, passes int, log io.Writer) ([]*outcome, int) {
	for _, st := range stats {
		for _, e := range st.errs {
			fmt.Fprintln(log, e)
		}
	}
	direct := make([]*outcome, len(nets))
	bad := 0
	for i, n := range nets {
		out, err := ldrgOp(n, nil)
		if err == nil {
			err = verifyOutcome(n, out)
		}
		if err == nil && !matchesDirect(d.refs[i], out) {
			err = errors.New("serve.Run differs from nontree.MST then nontree.LDRG")
		}
		if err != nil {
			fmt.Fprintf(log, "net %d: %v\n", i, err)
			bad += passes
			continue
		}
		direct[i] = out
		for _, st := range stats {
			bad += st.failed[i]
		}
	}
	return direct, bad
}

// daemonLayerMetrics computes the per-layer metrics of route-daemon from
// its traced window's replies and /metrics deltas, and its untraced
// window's GC figures and latency (for the tracing overhead).
func daemonLayerMetrics(traced, plain *window, stats []clientStats, c map[string]int64) map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.Name] = 0
	}
	n := float64(traced.attempted())
	counterMetrics(v, c, n)
	var sum clientStats
	for i := range stats {
		sum.add(&stats[i])
	}
	ok := float64(sum.ok)
	ms := func(s, count float64) float64 { return ratio(s, count) * 1e3 }
	v["serve.client_ms"] = ms(traced.busy, n)
	v["serve.queue_ms"] = ms(sum.phases.QueueSeconds, ok)
	v["serve.decode_ms"] = ms(sum.phases.DecodeSeconds, ok)
	v["serve.sweep_ms"] = ms(sum.phases.SweepSeconds, ok)
	v["serve.oracle_ms"] = ms(sum.phases.OracleSeconds, ok)
	v["serve.store_ms"] = ms(sum.phases.StoreSeconds, ok)
	v["serve.unattributed_ms"] = ms(sum.unattributed, ok)
	v["serve.read_log_ms"] = ms(sum.readLog, float64(sum.reads))
	v["serve.read_trace_ms"] = ms(sum.readTrace, float64(sum.reads))
	v["serve.shed_per_op"] = float64(c[obs.CtrRouteRejected]) / n
	v["trace.events_per_op"] = ratio(float64(sum.traceEvents), ok)
	v["trace.evictions_per_op"] = float64(c[obs.CtrTraceEvictions]) / n
	v["olog.evictions_per_op"] = float64(c[obs.CtrLogEvictions]) / n
	plain.gcMetrics(v)
	v["bench.tracing_overhead"] = traced.busy/n/(plain.busy/float64(plain.attempted())) - 1
	return v
}
