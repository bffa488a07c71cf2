package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// span is one timed call into a layer's public function, recorded
// from the benchmark's side of the call. Allocs and Bytes are the
// runtime.MemStats deltas (Mallocs, TotalAlloc) over the span,
// children included.
type span struct {
	Run    int    `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// layer is the span name up to its first dot: "simnet.Run" -> "simnet".
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps every span of a run in memory; write dumps them when
// the benchmark ends. A nil *tracer is the untraced mode: begin and
// end are no-ops, so workload code calls them unconditionally.
type tracer struct {
	epoch time.Time
	run   int
	spans []span
	open  []int
	ms    runtime.MemStats
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span nested in the innermost open one. MemStats is read
// before the clock so the read's own cost stays outside the span.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	runtime.ReadMemStats(&t.ms)
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{
		Run: t.run, ID: len(t.spans), Parent: parent, Name: name,
		Start: int64(time.Since(t.epoch)), Allocs: t.ms.Mallocs, Bytes: t.ms.TotalAlloc,
	})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span, clock first, then MemStats.
func (t *tracer) end() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	runtime.ReadMemStats(&t.ms)
	s := &t.spans[t.open[len(t.open)-1]]
	t.open = t.open[:len(t.open)-1]
	s.End = now
	s.Allocs = t.ms.Mallocs - s.Allocs
	s.Bytes = t.ms.TotalAlloc - s.Bytes
}

// runSpans returns the spans of run id r.
func (t *tracer) runSpans(r int) []span {
	var out []span
	for _, s := range t.spans {
		if s.Run == r {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each layer's self time in seconds over spans: a
// span's duration minus the part its direct children cover.
func selfTimes(spans []span) map[string]float64 {
	child := make(map[int]float64)
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.seconds()
		}
	}
	self := make(map[string]float64)
	for _, s := range spans {
		self[s.layer()] += s.seconds() - child[s.ID]
	}
	return self
}

// write dumps the spans as NDJSON, one span per line.
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
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
