package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer's public functions, recorded from
// outside the program. Start and End are nanoseconds since the tracer's
// epoch; Parent is the index of the span that caused this one (-1 for an
// iteration root). Spans of one iteration share Iteration.
type span struct {
	Name      string `json:"name"`
	Start     int64  `json:"start"`
	End       int64  `json:"end"`
	Parent    int    `json:"parent"`
	Iteration int    `json:"iteration"`
	Scenario  string `json:"scenario,omitempty"`
	SelfNs    int64  `json:"self_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory and writes them out when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent, iteration int, scenario string) int {
	t.spans = append(t.spans, span{
		Name: name, Parent: parent, Iteration: iteration, Scenario: scenario,
		Start: int64(time.Since(t.epoch)),
	})
	return len(t.spans) - 1
}

// end closes the span and returns its duration in nanoseconds.
func (t *tracer) end(id int) int64 {
	t.spans[id].End = int64(time.Since(t.epoch))
	return t.spans[id].dur()
}

// fillSelf computes every span's self time from its direct children.
func (t *tracer) fillSelf() {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.dur()
		}
	}
	for i := range t.spans {
		t.spans[i].SelfNs = selfNs(t.spans[i].dur(), children[i])
	}
}

// sumByIteration returns, per iteration, the summed duration in
// milliseconds of the spans whose name is prefix or starts with
// prefix + ".".
func (t *tracer) sumByIteration(iters int, prefix string) []float64 {
	out := make([]float64, iters)
	for _, s := range t.spans {
		if s.Name == prefix || strings.HasPrefix(s.Name, prefix+".") {
			out[s.Iteration] += float64(s.dur()) / 1e6
		}
	}
	return out
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.fillSelf()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
