package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the layer's public function. Spans of one op share the op id; Parent is the
// index of the span that caused this one (-1 for an op's root span).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory; write dumps them once the run ends, so
// recording costs a clock read and an append under a mutex.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

// open starts a span and returns its id. A nil tracer records nothing and
// returns -1, so untraced ops call the same code.
func (t *tracer) open(name string, op int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Op: op, ID: id, Parent: parent, Start: now})
	t.mu.Unlock()
	return id
}

// close ends span id.
func (t *tracer) close(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// write stores the spans as JSON lines in dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// selfTimes returns, per op, the summed self time of every span name in
// nanoseconds. A span's self time is its duration minus the part of its
// interval that its children cover; children may overlap (parallel fan-outs),
// so the covered part is the union of their intervals.
func (t *tracer) selfTimes() map[int64]map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]int32)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	out := make(map[int64]map[string]int64)
	for _, s := range t.spans {
		if s.End == 0 {
			continue
		}
		var iv [][2]int64
		for _, c := range children[s.ID] {
			cs := t.spans[c]
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		self := s.End - s.Start - covered(iv)
		if out[s.Op] == nil {
			out[s.Op] = make(map[string]int64)
		}
		out[s.Op][s.Name] += self
	}
	return out
}

// covered returns the total length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, x := range iv {
		lo := max(x[0], end)
		if x[1] > lo {
			total += x[1] - lo
			end = x[1]
		}
	}
	return total
}

// layerMedians reduces per-op self times to one figure per span name: the
// median over the given ops of the op's summed self time for that name, in
// ns. Ops in which a name does not occur count as zero.
func layerMedians(self map[int64]map[string]int64, ops []int64) map[string]float64 {
	names := make(map[string]bool)
	for _, op := range ops {
		for name := range self[op] {
			names[name] = true
		}
	}
	out := make(map[string]float64, len(names))
	for name := range names {
		vals := make([]float64, len(ops))
		for i, op := range ops {
			vals[i] = float64(self[op][name])
		}
		out[name] = median(vals)
	}
	return out
}
