package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent is the id
// of the enclosing span, or 0 for a root; every span of one op shares Op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of a traced run in memory until the run ends.
// It is safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id. A nil tracer records nothing.
func (t *tracer) start(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span start returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// layerTime is the time a run spent in spans of one name.
type layerTime struct {
	Name        string
	Calls       int
	Total, Self float64 // seconds
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the durations of its children, which never overlap each other.
func selfTimes(spans []span) map[string]*layerTime {
	child := make(map[int]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]*layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Calls++
		lt.Total += float64(d) / 1e9
		lt.Self += float64(d-child[s.ID]) / 1e9
	}
	return out
}

// printSelfTimes writes the self-time table, sorted by self time, with
// each name's share of the root time base.
func printSelfTimes(w io.Writer, times map[string]*layerTime, base float64) {
	rows := make([]*layerTime, 0, len(times))
	for _, lt := range times {
		rows = append(rows, lt)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Self > rows[j].Self })
	fmt.Fprintf(w, "  %-18s %8s %11s %11s %7s\n", "span", "calls", "total_ms", "self_ms", "self%")
	for _, lt := range rows {
		fmt.Fprintf(w, "  %-18s %8d %11.1f %11.1f %6.1f%%\n",
			lt.Name, lt.Calls, lt.Total*1e3, lt.Self*1e3, 100*ratio(lt.Self, base))
	}
}

// writeSpans writes the spans as JSONL to path, creating its directory.
func writeSpans(path string, spans []span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}
