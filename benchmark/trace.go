package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// tracer records the benchmark's own spans — run → round → phase → layer
// loop — in memory and writes them as Chrome trace JSON when the run ends.
// It is driven from the single benchmark goroutine, so the open-span stack
// gives every span its parent. A nil tracer records nothing.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // indices into spans, innermost last
}

type span struct {
	name       string
	start, end time.Duration // since origin
	parent     int           // index into spans, -1 for the root
}

func newTracer() *tracer { return &tracer{origin: now()} }

// begin opens a span under the innermost open one; call the returned
// function to close it.
func (t *tracer) begin(name string) (end func()) {
	if t == nil {
		return func() {}
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, start: since(t.origin), parent: parent})
	t.open = append(t.open, id)
	return func() {
		t.spans[id].end = since(t.origin)
		t.open = t.open[:len(t.open)-1]
	}
}

// chromeEvent is one "complete" event of the Chrome trace-event format
// (chrome://tracing, Perfetto); ts and dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

func (t *tracer) chromeJSON() ([]byte, error) {
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": i, "parent": s.parent},
		}
	}
	return json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

func (t *tracer) writeFile(path string) error {
	b, err := t.chromeJSON()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
