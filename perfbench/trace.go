package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// an exported entry point. Spans of one op share Op; Parent is the span
// that caused this one (0 for a root).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent,omitempty"`
	Op     int64   `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call the same helpers.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.epoch)) / float64(time.Microsecond)
}

// record stores a span measured by the caller and returns its id.
func (t *tracer) record(name string, parent, op int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: t.us(start), End: t.us(end)})
	return id
}

// reserve allocates a span id before its children are recorded; finish
// fills it in once the span ends.
func (t *tracer) reserve(name string, parent, op int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name})
	return id
}

func (t *tracer) finish(id int64, start, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Start, t.spans[id-1].End = t.us(start), t.us(end)
}

// do runs fn inside a span named name; fn receives the span id so it can
// parent its own calls.
func (t *tracer) do(name string, parent, op int64, fn func(id int64) error) error {
	if t == nil {
		return fn(0)
	}
	id := t.reserve(name, parent, op)
	start := time.Now()
	err := fn(id)
	t.finish(id, start, time.Now())
	return err
}

// durations returns the durations (µs) of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children count
// once).
func selfTimes(spans []span) []float64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]float64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// spanSummary is the per-name aggregate written after the spans.
type spanSummary struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	MedianUS  float64 `json:"median_us"`
	SelfP50US float64 `json:"self_median_us"`
	SelfSumUS float64 `json:"self_total_us"`
}

// summary aggregates spans by name, sorted by total self time.
func (t *tracer) summary() []spanSummary {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for i, s := range spans {
		durs[s.Name] = append(durs[s.Name], s.dur())
		selfs[s.Name] = append(selfs[s.Name], self[i])
	}
	out := make([]spanSummary, 0, len(durs))
	for name, d := range durs {
		total := 0.0
		for _, x := range selfs[name] {
			total += x
		}
		out = append(out, spanSummary{Name: name, Count: len(d), MedianUS: median(d), SelfP50US: median(selfs[name]), SelfSumUS: total})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfSumUS != out[j].SelfSumUS {
			return out[i].SelfSumUS > out[j].SelfSumUS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// writeFile writes every span as one JSON line, then one summary line per
// span name.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	for _, s := range t.summary() {
		if err := enc.Encode(map[string]spanSummary{"summary": s}); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}
