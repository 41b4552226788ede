package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call at a layer boundary. Spans of one request
// share Req; Parent is the enclosing span's ID (0 for a root).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer began
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A span begun while
// another is open becomes its child, which also holds for a server
// handler running on another goroutine while the client waits on it.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
	open  []int // stack of open span indexes
	req   int
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Request starts a new request id for the root spans that follow.
func (t *Tracer) Request() {
	t.mu.Lock()
	t.req++
	t.mu.Unlock()
}

// Begin opens a span under the innermost open span and returns its
// handle for End; spans begun before End are its children.
func (t *Tracer) Begin(name string) int {
	h := t.BeginChild(name)
	t.mu.Lock()
	t.open = append(t.open, h)
	t.mu.Unlock()
	return h
}

// BeginChild opens a span under the innermost open span without
// becoming the parent of later spans: server-side spans use it, since
// several may be open at once on other goroutines (a router's fan-out).
func (t *Tracer) BeginChild(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if len(t.open) > 0 {
		parent = t.spans[t.open[len(t.open)-1]].ID
	}
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Req: t.req, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// End closes the span h and returns its duration.
func (t *Tracer) End(h int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[h].End = time.Since(t.t0).Nanoseconds()
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == h {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
	return t.spans[h].Dur()
}

// Do runs f inside a span named name and returns the span's duration.
func (t *Tracer) Do(name string, f func()) time.Duration {
	h := t.Begin(name)
	f()
	return t.End(h)
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// write stores the spans, each with its self time, as JSON.
func (t *Tracer) write(path string) error {
	spans := t.Spans()
	self := SelfTimes(spans)
	type row struct {
		Span
		SelfNs int64 `json:"self_ns"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{s, self[s.ID]}
	}
	b, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// SelfTimes maps each span ID to its duration minus the part of its
// interval that its children cover (overlapping children count once,
// and a child's time outside its parent does not count).
func SelfTimes(spans []Span) map[int]int64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max64(k.Start, cur), min64(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
