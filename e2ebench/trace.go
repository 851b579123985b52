package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point. Parent is the index of the enclosing
// span, -1 for a root.
type span struct {
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for one goroutine. A nil *tracer is the
// untraced path: every method returns at once.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under the innermost open span and returns its
// index for end.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Layer: layer, Name: name, Parent: parent, Start: int64(time.Since(t.origin))})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.origin))
	t.open = t.open[:len(t.open)-1]
}

// do records f as one span.
func (t *tracer) do(layer, name string, f func()) {
	id := t.begin(layer, name)
	f()
	t.end(id)
}

// child records an already-measured interval as a closed child of the
// innermost open span. It attributes time a module reports about itself
// (multitenant.Result.Phases) to the layer that spent it.
func (t *tracer) child(layer, name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	s := int64(start.Sub(t.origin))
	t.spans = append(t.spans, span{Layer: layer, Name: name, Parent: parent, Start: s, End: s + int64(d)})
}

// durations returns the durations of every span with this layer and
// name, in seconds.
func (t *tracer) durations(layer, name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// selfTimes sums each layer's self time: a span's duration minus the
// time its direct children cover. Children of one span never overlap,
// since a tracer serves one goroutine.
func (t *tracer) selfTimes() map[string]float64 {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]float64)
	for i, s := range t.spans {
		self[s.Layer] += time.Duration(s.End - s.Start - covered[i]).Seconds()
	}
	return self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

// layerNames lists the layers the benchmark records spans for; each gets
// a self_s.<layer> metric, 0 on workloads that never call it.
var layerNames = []string{
	"bench", "lang", "check", "unroll", "ilpgen", "ilp", "codegen", "tv",
	"sim", "multitenant", "serve",
}

// traceMetrics reports self time per layer and the tracing overhead:
// the traced pass's wall time minus the untraced pass's, for the same
// operations. The root span is the traced pass, so the self times sum
// to its wall time.
func (t *tracer) traceMetrics(r *result, untraced, traced time.Duration) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for l := range self {
		names = append(names, l)
	}
	sort.Strings(names)
	for _, l := range names {
		r.layer("self_s."+l, self[l], "s")
	}
	r.layer("trace.untraced_s", untraced.Seconds(), "s")
	r.layer("trace.traced_s", traced.Seconds(), "s")
	r.layer("trace.overhead_s", (traced - untraced).Seconds(), "s")
}
