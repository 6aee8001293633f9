package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"

	"nontree"
	"nontree/internal/netlist"
)

// workload is one named benchmark workload. README.md gives the reason
// behind each one's pin count, corpus size and pass length.
type workload struct {
	name    string
	pins    int     // pins per net
	corpus  int     // nets per corpus; every pass routes all of them
	quality int     // batch: nets delay_ratio and cost_ratio average over
	warm    int     // warm-up nets routed once in set-up, before timing
	pass    float64 // seconds one pass takes on the reference machine
	run     func(w *workload, o runOpts) (*report, error)
	op      batchOp // batch workloads: one routed net
}

var workloads = []*workload{
	{name: "route-daemon", pins: 20, corpus: 512, warm: 64, pass: 2, run: runDaemon},
	{name: "batch-sldrg", pins: 24, corpus: 40, quality: 160, warm: 8, pass: 1.5, run: runBatch, op: sldrgOp},
	{name: "batch-measure", pins: 30, corpus: 64, quality: 256, warm: 32, pass: 0.85, run: runBatch, op: measureOp},
}

// passCount is how many whole passes one measured window routes: as many
// as fill -seconds at the workload's reference pass length, at least two,
// and half as many in each window of a traced run. It never depends on how
// fast the code under test runs, so a slower and a faster build take the
// fastest of the same number of passes.
func (w *workload) passCount(o runOpts) int {
	seconds := o.seconds
	if o.traced {
		seconds /= 2
	}
	return max(2, int(math.Round(seconds/w.pass)))
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// warmSeed seeds the warm-up nets. It is fixed, so set-up does the same
// work whatever the corpus seed and setup_s varies only with the host.
const warmSeed = 0

// makeCorpus generates the n-net corpus of a seed. The program under test
// sees only the generated nets, never the seed.
func makeCorpus(seed int64, n, pins int) ([]*nontree.Net, error) {
	return netlist.NewGenerator(seed).GenerateBatch(n, pins)
}

// corpusFingerprint hashes every pin coordinate of the corpus bit for bit.
func corpusFingerprint(nets []*nontree.Net) string {
	h := fnv.New64a()
	for _, n := range nets {
		for _, p := range n.Pins {
			fmt.Fprintf(h, "%s %s;", strconv.FormatFloat(p.X, 'x', -1, 64), strconv.FormatFloat(p.Y, 'x', -1, 64))
		}
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
