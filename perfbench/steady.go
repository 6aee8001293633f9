package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadiness runs one workload k times, each in a fresh process on its own
// seed, and prints each metric's median, quartiles and spread
// (q3−q1)/median, the figure a metric's bound must exceed.
func steadiness(stdout io.Writer, name string, seed int64, seconds float64, traced, k int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traced))
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = io.Discard
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte{'\n'})
		var rep report
		if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if !rep.Correct {
			return fmt.Errorf("seed %d: outputs failed verification", s)
		}
		for m, v := range rep.Metrics {
			values[m] = append(values[m], v.Value)
			units[m] = v.Unit
		}
		fmt.Fprintf(os.Stderr, "seed %d done\n", s)
	}
	names := make([]string, 0, len(values))
	for m := range values {
		names = append(names, m)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%s, %d runs of %gs, seeds %d..%d\n", name, k, seconds, seed, seed+int64(k)-1)
	fmt.Fprintf(stdout, "%-32s %-6s %12s %12s %12s %8s  %s\n", "metric", "unit", "median", "q1", "q3", "spread", "values by seed")
	for _, m := range names {
		xs := values[m]
		q := [3]float64{xs[0], xs[0], xs[0]}
		if len(xs) > 1 {
			q = quartiles(xs)
		}
		fmt.Fprintf(stdout, "%-32s %-6s %12.6g %12.6g %12.6g %8.4f  %.4g\n", m, units[m], median(xs), q[0], q[2], ratio(q[2]-q[0], median(xs)), xs)
	}
	return nil
}
