package main

import (
	"errors"
	"fmt"
	"io"
	"math"

	"nontree"
)

// elmoreTolerance is the relative difference allowed between a reported
// objective and an independent nontree.ElmoreDelay recomputation.
const elmoreTolerance = 1e-9

// verifyBatch checks each net's reference outcome and returns the number
// of failed ops: every op of a net whose reference fails a check, plus the
// ops the window itself counted as failed on the others.
func verifyBatch(nets []*nontree.Net, refs []*outcome, failed []int, passes int, log io.Writer) int {
	bad := 0
	for i, net := range nets {
		if err := verifyOutcome(net, refs[i]); err != nil {
			fmt.Fprintf(log, "net %d: %v\n", i, err)
			bad += passes
			continue
		}
		bad += failed[i]
	}
	return bad
}

// verifyOutcome checks one routed net: the result is a valid routing that
// extends its seed, improves its objective, and reports objectives an
// independent Elmore computation reproduces; measured delays are positive.
func verifyOutcome(net *nontree.Net, out *outcome) error {
	if out == nil {
		return errors.New("no op succeeded")
	}
	if err := checkRouted(net, out.seed, out.res); err != nil {
		return err
	}
	for _, d := range []*nontree.DelayReport{out.seedDelay, out.resDelay} {
		if d != nil && !(d.Max > 0 && !math.IsInf(d.Max, 0)) {
			return fmt.Errorf("measured delay %g s is not positive and finite", d.Max)
		}
	}
	return nil
}

// checkRouted checks an elmore-steered result against its net and seed.
func checkRouted(net *nontree.Net, seed *nontree.Topology, res *nontree.Result) error {
	t := res.Topology
	if t == nil || t.NumPins() != net.NumPins() {
		return fmt.Errorf("result does not span the net's %d pins", net.NumPins())
	}
	for i, p := range net.Pins {
		if t.Point(i) != p {
			return fmt.Errorf("result moves pin %d", i)
		}
	}
	if !t.Connected() {
		return errors.New("result is disconnected")
	}
	for _, e := range seed.Edges() {
		if !t.HasEdge(e) {
			return fmt.Errorf("result drops seed edge %v", e)
		}
	}
	if !(res.FinalObjective <= res.InitialObjective) {
		return fmt.Errorf("final objective %g s exceeds initial %g s", res.FinalObjective, res.InitialObjective)
	}
	if err := checkElmore(seed, res.InitialObjective); err != nil {
		return fmt.Errorf("initial objective: %w", err)
	}
	if err := checkElmore(t, res.FinalObjective); err != nil {
		return fmt.Errorf("final objective: %w", err)
	}
	return nil
}

// checkElmore compares an objective with nontree.ElmoreDelay's max delay.
func checkElmore(t *nontree.Topology, objective float64) error {
	rep, err := nontree.ElmoreDelay(t, nontree.DefaultParams())
	if err != nil {
		return err
	}
	if math.Abs(rep.Max-objective) > elmoreTolerance*math.Abs(rep.Max) {
		return fmt.Errorf("%g s differs from the Elmore recomputation %g s", objective, rep.Max)
	}
	return nil
}

// sameOutcome reports whether two outcomes are bit-for-bit identical. It
// compares what Result.Fingerprint renders, without allocating, so it can
// run between timed ops without loading the collector.
func sameOutcome(a, b *outcome) bool {
	return sameResult(a.res, b.res) && sameTopology(a.seed, b.seed) &&
		sameDelays(a.seedDelay, b.seedDelay) && sameDelays(a.resDelay, b.resDelay)
}

func sameResult(a, b *nontree.Result) bool {
	if !sameFloat(a.InitialObjective, b.InitialObjective) || !sameFloat(a.FinalObjective, b.FinalObjective) ||
		len(a.AddedEdges) != len(b.AddedEdges) || len(a.Trace) != len(b.Trace) {
		return false
	}
	for i := range a.AddedEdges {
		if a.AddedEdges[i] != b.AddedEdges[i] {
			return false
		}
	}
	for i := range a.Trace {
		if !sameFloat(a.Trace[i], b.Trace[i]) {
			return false
		}
	}
	return sameTopology(a.Topology, b.Topology)
}

func sameTopology(a, b *nontree.Topology) bool {
	if a.NumNodes() != b.NumNodes() || a.NumPins() != b.NumPins() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for n := 0; n < a.NumNodes(); n++ {
		if a.Point(n) != b.Point(n) {
			return false
		}
	}
	// With equal edge counts, containment one way is set equality.
	for n := 0; n < a.NumNodes(); n++ {
		for _, m := range a.Neighbors(n) {
			if !b.HasEdge(nontree.Edge{U: n, V: m}) {
				return false
			}
		}
	}
	return true
}

func sameDelays(a, b *nontree.DelayReport) bool {
	if a == nil || b == nil {
		return a == b
	}
	if !sameFloat(a.Max, b.Max) || len(a.PerSink) != len(b.PerSink) {
		return false
	}
	for i := range a.PerSink {
		if !sameFloat(a.PerSink[i], b.PerSink[i]) {
			return false
		}
	}
	return true
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameSplit reports whether a traced op, which calls the layer entry points
// separately, decided exactly what the untraced facade call decided: equal
// Result fingerprints, and bit-identical simulated delays.
func sameSplit(untraced, traced *outcome) bool {
	return untraced.res.Fingerprint() == traced.res.Fingerprint() &&
		sameDelays(untraced.seedDelay, traced.seedDelay) && sameDelays(untraced.resDelay, traced.resDelay)
}
