package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs (nearest rank); xs is sorted in
// place. An empty sample reads 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[max(0, min(len(xs)-1, i))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// minOf is the smallest of xs, 0 for none.
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timed runs fn and returns how long it took.
func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// span is one timed interval at a layer boundary. Spans of one request share
// Req; Parent is the index of the span that caused this one, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req,omitempty"`
}

// recorder keeps the spans of a traced run in memory until the run ends. A
// nil recorder records nothing, which is what an untraced run passes around.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	byReq map[uint64]int // request id -> index of its client root
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), byReq: make(map[uint64]int)}
}

// add records one finished span and returns its index. A span whose request
// already has a root becomes that root's child.
func (r *recorder) add(name string, start, end time.Time, parent int, req uint64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if req != 0 && parent < 0 {
		if root, ok := r.byReq[req]; ok {
			parent = root
		}
	}
	r.spans = append(r.spans, span{Name: name, Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)), Parent: parent, Req: req})
	return len(r.spans) - 1
}

// open reserves the root span of a request before its children exist, so the
// server-side span of the same request can name it as parent; close fills in
// the end.
func (r *recorder) open(name string, start time.Time, req uint64) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: int64(start.Sub(r.t0)), Parent: -1, Req: req})
	if req != 0 {
		r.byReq[req] = len(r.spans) - 1
	}
	return len(r.spans) - 1
}

func (r *recorder) close(i int, end time.Time) {
	if r == nil || i < 0 {
		return
	}
	r.mu.Lock()
	r.spans[i].End = int64(end.Sub(r.t0))
	delete(r.byReq, r.spans[i].Req)
	r.mu.Unlock()
}

// probe times fn as one span under parent.
func (r *recorder) probe(name string, parent int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.add(name, start, end, parent, 0)
	return end.Sub(start)
}

// spanRow is one line of the per-name table written beside the spans.
type spanRow struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	TotalMS   float64 `json:"total_ms"`
	SelfP50MS float64 `json:"self_p50_ms"`
	SelfP99MS float64 `json:"self_p99_ms"`
}

// selfTimes returns, per span name, every span's duration minus the part its
// children cover, in milliseconds.
func (r *recorder) selfTimes() (self map[string][]float64, total map[string]float64) {
	covered := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			p := r.spans[s.Parent]
			covered[s.Parent] += max(0, min(s.End, p.End)-max(s.Start, p.Start))
		}
	}
	self, total = make(map[string][]float64), make(map[string]float64)
	for i, s := range r.spans {
		d := s.End - s.Start
		self[s.Name] = append(self[s.Name], float64(max(0, d-covered[i]))/1e6)
		total[s.Name] += float64(d) / 1e6
	}
	return self, total
}

// durations returns every span's full duration per name, in milliseconds.
func (r *recorder) durations() map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range r.spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
	}
	return out
}

func (r *recorder) table() []spanRow {
	self, total := r.selfTimes()
	rows := make([]spanRow, 0, len(self))
	for name, xs := range self {
		rows = append(rows, spanRow{Name: name, Count: len(xs), TotalMS: total[name],
			SelfP50MS: quantile(xs, 0.5), SelfP99MS: quantile(xs, 0.99)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// write stores the spans and their table in <dir>/<workload>.trace.json.
func (r *recorder) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	data, err := json.Marshal(struct {
		Workload string    `json:"workload"`
		Table    []spanRow `json:"table"`
		Spans    []span    `json:"spans"`
	}{workload, r.table(), r.spans})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}
