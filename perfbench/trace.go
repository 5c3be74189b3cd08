package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary. Spans are kept in
// memory for the whole run and written out once at the end.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Run    string `json:"run"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// Tracer records spans from any goroutine. A nil *Tracer records
// nothing, so untraced runs pass nil through the same code.
type Tracer struct {
	run   string
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

func newTracer(run string) *Tracer {
	return &Tracer{run: run, epoch: time.Now()}
}

// Begin opens a span under parent (0 for a root) and returns its id;
// End closes it.
func (t *Tracer) Begin(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Run: t.run, Name: name, Layer: layer, Start: now, End: -1})
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// Add records a span whose interval was measured elsewhere (for
// example between two progress events) and returns its id.
func (t *Tracer) Add(parent int, layer, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Run: t.run, Name: name, Layer: layer,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return id
}

// Duration returns span id's length in seconds.
func (t *Tracer) Duration(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return float64(s.End-s.Start) / 1e9
}

// DurationOf returns the length in seconds of the first closed span
// called name, or 0 if there is none.
func (t *Tracer) DurationOf(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && s.End >= s.Start {
			return float64(s.End-s.Start) / 1e9
		}
	}
	return 0
}

// subtree returns root and every closed span below it.
func (t *Tracer) subtree(root int) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	in := map[int]bool{root: true}
	out := []Span{t.spans[root-1]}
	// Spans are appended after their parent, so one pass in id order
	// finds every descendant.
	for _, s := range t.spans[root:] {
		if in[s.Parent] && s.End >= s.Start {
			in[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

// SelfTimes attributes the interval of span root to the spans below
// it, per layer, in seconds. A span's self time is its duration minus
// the part its child spans cover. Where sibling spans overlap (two
// shards, two workers), each instant is split evenly among the
// innermost spans active at it, so the self times of a tree always sum
// to the root's duration.
func (t *Tracer) SelfTimes(root int) map[string]float64 {
	spans := t.subtree(root)
	lo, hi := spans[0].Start, spans[0].End
	var cuts []int64
	for _, s := range spans {
		cuts = append(cuts, min(max(s.Start, lo), hi), min(max(s.End, lo), hi))
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	hasActiveChild := map[int]bool{}
	self := map[string]float64{}
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		if hi == lo {
			continue
		}
		clear(hasActiveChild)
		var active []Span
		for _, s := range spans {
			if s.Start <= lo && s.End >= hi {
				active = append(active, s)
				hasActiveChild[s.Parent] = true
			}
		}
		var leaves []Span
		for _, s := range active {
			if !hasActiveChild[s.ID] {
				leaves = append(leaves, s)
			}
		}
		share := float64(hi-lo) / 1e9 / float64(len(leaves))
		for _, s := range leaves {
			self[s.Layer] += share
		}
	}
	return self
}

// Count returns the number of closed spans.
func (t *Tracer) Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.End >= s.Start {
			n++
		}
	}
	return n
}

// WriteFile writes every span as one JSON document.
func (t *Tracer) WriteFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
