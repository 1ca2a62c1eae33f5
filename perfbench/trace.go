package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer: its name, the op it served, its own
// ID and its parent's (0 for an op's root span), and its interval in
// nanoseconds since the tracer's epoch.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanRef identifies the open span a context belongs to.
type spanRef struct{ op, id int64 }

type spanKey struct{}

// refFrom returns the span ctx was opened under, if any.
func refFrom(ctx context.Context) (spanRef, bool) {
	r, ok := ctx.Value(spanKey{}).(spanRef)
	return r, ok
}

// tracer keeps spans in memory while it is on. Off, every call returns
// at once without allocating, so an untraced pass pays one atomic load per
// instrumented call.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

// add records a finished span.
func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// openSpan is a started span; end records it. The zero value (tracing off)
// records nothing.
type openSpan struct {
	t *tracer
	s span
}

func (o openSpan) end() {
	if o.t != nil {
		o.s.End = o.t.now()
		o.t.add(o.s)
	}
}

// root opens op's root span.
func (t *tracer) root(ctx context.Context, op int64) (context.Context, openSpan) {
	if !t.on.Load() {
		return ctx, openSpan{}
	}
	s := span{Name: "op", Op: op, ID: t.newID(), Start: t.now()}
	return context.WithValue(ctx, spanKey{}, spanRef{op, s.ID}), openSpan{t, s}
}

// start opens a child of ctx's span.
func (t *tracer) start(ctx context.Context, name string) (context.Context, openSpan) {
	if !t.on.Load() {
		return ctx, openSpan{}
	}
	parent, ok := refFrom(ctx)
	if !ok {
		return ctx, openSpan{}
	}
	return t.startUnder(ctx, parent, name)
}

// startUnder opens a span under an explicit parent (one received from
// another goroutine, such as the op and span IDs a request carries to the
// server's handler).
func (t *tracer) startUnder(ctx context.Context, parent spanRef, name string) (context.Context, openSpan) {
	s := span{Name: name, Op: parent.op, ID: t.newID(), Parent: parent.id, Start: t.now()}
	return context.WithValue(ctx, spanKey{}, spanRef{parent.op, s.ID}), openSpan{t, s}
}

// layerStat aggregates the spans of one name: how many, their summed
// duration, and their summed self time (duration minus the part of the
// interval their child spans cover).
type layerStat struct {
	n           int
	total, self time.Duration
}

func (l *layerStat) meanMS() float64     { return ratio(ms(l.total), float64(l.n)) }
func (l *layerStat) meanSelfMS() float64 { return ratio(ms(l.self), float64(l.n)) }

// analysis is the per-layer view of a traced pass.
type analysis struct {
	layers map[string]*layerStat
	// coverage is the share of the ops' root-span time their layer spans
	// cover; the rest is the benchmark's own bookkeeping between calls.
	coverage float64
}

// layer returns the stats of one span name (zero when none was recorded).
func (a analysis) layer(name string) *layerStat {
	if l, ok := a.layers[name]; ok {
		return l
	}
	return &layerStat{}
}

// analyze computes per-layer totals and self times over every recorded
// span.
func (t *tracer) analyze() analysis {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()

	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	a := analysis{layers: make(map[string]*layerStat)}
	var rootTotal, rootCovered int64
	for _, s := range spans {
		covered := coveredNS(s, children[s.ID])
		l := a.layers[s.Name]
		if l == nil {
			l = &layerStat{}
			a.layers[s.Name] = l
		}
		l.n++
		l.total += time.Duration(s.End - s.Start)
		l.self += time.Duration(s.End - s.Start - covered)
		if s.Parent == 0 {
			rootTotal += s.End - s.Start
			rootCovered += covered
		}
	}
	a.coverage = ratio(float64(rootCovered), float64(rootTotal))
	return a
}

// coveredNS is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNS(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		default:
			curHi = max(curHi, v[1])
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// write stores every span as one JSON line in dir/name.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err != nil {
		f.Close()
		return "", fmt.Errorf("write spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, f.Close()
}
