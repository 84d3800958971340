package main

import (
	"encoding/json"
	"os"
	"time"
)

// spanLog keeps wall-clock spans around the benchmark's own calls into
// each layer, in memory, and writes them as Chrome trace JSON at exit. A
// nil *spanLog records nothing, so untraced passes pay one nil check.
type spanLog struct {
	origin time.Time
	events []chromeEvent
}

// chromeEvent is one complete ("X") event of the Chrome trace format;
// timestamps are microseconds since the pass started. Spans nest by
// time on one track, so a span's parent is the span that encloses it.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// span runs fn and records it under name and the layer it calls into.
func (l *spanLog) span(layer, name string, fn func()) {
	if l == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	end := time.Now()
	l.events = append(l.events, chromeEvent{
		Name: name,
		Cat:  layer,
		Ph:   "X",
		Ts:   float64(start.Sub(l.origin).Nanoseconds()) / 1e3,
		Dur:  float64(end.Sub(start).Nanoseconds()) / 1e3,
		Pid:  1,
		Tid:  1,
	})
}

// write saves the spans as {"traceEvents": [...]}, loadable in Perfetto
// or chrome://tracing.
func (l *spanLog) write(path string) error {
	data, err := json.Marshal(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{l.events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
