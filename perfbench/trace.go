package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one spec, request or chunk share
// a Trace id; Parent is the id of the span that caused this one (0 for a
// root). Times are nanoseconds since the tracer's epoch.
type Span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur returns the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// layer returns the layer a span name belongs to: its prefix up to the
// first dot ("sim.run" → "sim").
func layer(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced runs pass nil through the same code.
type Tracer struct {
	epoch time.Time
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []Span
}

// NewTracer returns an empty tracer whose epoch is now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// NewID allocates a span or trace id; ids are unique within the tracer and
// never 0.
func (t *Tracer) NewID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Add records a finished span under a fresh id and returns the id.
func (t *Tracer) Add(trace, parent uint64, name string, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	id := t.NewID()
	t.AddID(id, trace, parent, name, start, end)
	return id
}

// AddID records a finished span under an id allocated earlier with NewID —
// the form for spans whose children were recorded while they were open.
func (t *Tracer) AddID(id, trace, parent uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := Span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of every span recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// writeSpans writes spans to path, one JSON object per line.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return errors.Join(err, f.Close())
		}
	}
	return errors.Join(w.Flush(), f.Close())
}

// selfTimes returns each span's self time — its duration minus the part of
// its interval that its children cover — summed per layer, in
// nanoseconds. Children that overlap one another (parallel work) cover
// their union once; a child reaching outside its parent counts only
// within the parent's interval.
func selfTimes(spans []Span) map[string]int64 {
	kids := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		out[layer(s.Name)] += s.Dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
