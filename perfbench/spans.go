package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// spanLabel is the CPU-profile label key that marks a sample's phase
// ("setup" or "run").
const spanLabel = "span"

// span is one timed call the benchmark made into the program. The spans of
// one point run share Point; a point's own span is the parent of its steps.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: none
	Point   int    `json:"point"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the tracer started
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them once the run ends.
type tracer struct {
	t0     time.Time
	spans  []span
	points int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// beginPoint opens the span of one point run and returns its id.
func (t *tracer) beginPoint(name string) int {
	t.points++
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Point: t.points, Name: name,
		StartNs: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

// end closes an open span.
func (t *tracer) end(id int) { t.spans[id-1].EndNs = time.Since(t.t0).Nanoseconds() }

// add records a finished span under parent.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Point: t.points, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// total sums the durations, in seconds, of the spans called name.
func (t *tracer) total(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.EndNs - s.StartNs
		}
	}
	return float64(ns) / 1e9
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
