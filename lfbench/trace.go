package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"
)

// tracer records spans at the layer boundaries the benchmark's own
// wrappers see. Spans that can have children (a RunStore call, a wire
// request, a labbase call) are pushed on a stack by the one goroutine that
// issues them; leaf spans (storage manager calls) may come from any
// goroutine, e.g. the shard fan-out, and attach to whatever span was open
// when they started. A span's self time is its duration minus the union of
// the intervals its children cover, computed as the children end.
//
// Spans are kept in memory (up to keepLimit of them) and written out by
// writeSpans at the end; the per-name aggregates cover every span.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	names []string
	ids   map[string]uint16
	spans []span
	stack []*openSpan
	aggs  map[string]*agg
	lost  int
}

// keepLimit bounds the spans kept for writing out (24 bytes each).
const keepLimit = 1 << 20

type span struct {
	name       uint16
	parent     int32 // index in spans, -1 for none or not kept
	start, end int64 // ns since the tracer started
}

type openSpan struct {
	idx        int32
	name       string
	start      int64
	parent     *openSpan
	active     int   // children running now
	coverStart int64 // when active last rose from 0
	covered    int64 // union of finished child coverage
	counted    bool
}

// agg sums one span name.
type agg struct {
	n     int64
	total time.Duration
	self  time.Duration
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ids: make(map[string]uint16), aggs: make(map[string]*agg)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) nameID(name string) uint16 {
	id, ok := t.ids[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = id
	}
	return id
}

// startLocked opens a span under the current top of the stack.
func (t *tracer) startLocked(name string, counted bool) *openSpan {
	now := t.now()
	o := &openSpan{idx: -1, name: name, start: now, counted: counted}
	if n := len(t.stack); n > 0 {
		o.parent = t.stack[n-1]
		if o.parent.active == 0 {
			o.parent.coverStart = now
		}
		o.parent.active++
	}
	if len(t.spans) < keepLimit {
		parent := int32(-1)
		if o.parent != nil {
			parent = o.parent.idx
		}
		o.idx = int32(len(t.spans))
		t.spans = append(t.spans, span{name: t.nameID(name), parent: parent, start: now})
	} else {
		t.lost++
	}
	return o
}

func (t *tracer) endLocked(o *openSpan) {
	now := t.now()
	if o.active > 0 { // a child outlived its parent: count it up to now
		o.covered += now - o.coverStart
	}
	if o.idx >= 0 {
		t.spans[o.idx].end = now
	}
	a := t.aggs[o.name]
	if a == nil {
		a = &agg{}
		t.aggs[o.name] = a
	}
	if o.counted {
		a.n++
	}
	a.total += time.Duration(now - o.start)
	a.self += time.Duration(now - o.start - o.covered)
	if p := o.parent; p != nil {
		p.active--
		if p.active == 0 {
			p.covered += now - p.coverStart
		}
	}
}

// push opens a span that later spans on this goroutine nest under.
func (t *tracer) push(name string) *openSpan { return t.pushCounted(name, true) }

// pushCounted is push for a span that continues an earlier call (a scan
// resuming after its caller's callback): it adds time, not a call.
func (t *tracer) pushCounted(name string, counted bool) *openSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	o := t.startLocked(name, counted)
	t.stack = append(t.stack, o)
	return o
}

func (t *tracer) pop(o *openSpan) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n == 0 || t.stack[n-1] != o {
		panic(fmt.Sprintf("lfbench: trace span %s closed out of order", o.name))
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.endLocked(o)
}

// region is push plus a deferred pop: defer t.region("x")().
func (t *tracer) region(name string) func() {
	o := t.push(name)
	return func() { t.pop(o) }
}

// leaf opens a span that has no children; it may run on any goroutine.
// On a nil tracer it records nothing.
func (t *tracer) leaf(name string) func() {
	if t == nil {
		return func() {}
	}
	t.mu.Lock()
	o := t.startLocked(name, true)
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		t.endLocked(o)
		t.mu.Unlock()
	}
}

// take returns the aggregates gathered since the last take and starts a
// fresh set; spans stay kept for writeSpans.
func (t *tracer) take() map[string]agg {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]agg, len(t.aggs))
	for k, v := range t.aggs {
		out[k] = *v
	}
	t.aggs = make(map[string]*agg)
	return out
}

// writeSpans writes every kept span as "name start_ns end_ns parent" lines.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# name start_ns end_ns parent_index (spans not kept: %d)\n", t.lost)
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s %d %d %d\n", t.names[s.name], s.start, s.end, s.parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (a *agg) add(b agg) {
	a.n += b.n
	a.total += b.total
	a.self += b.self
}

// layerSums folds per-name aggregates into per-layer totals: the layer is
// the name up to its first dot ("labbase.MostRecent" -> "labbase").
func layerSums(aggs map[string]agg) map[string]agg {
	out := make(map[string]agg)
	for name, a := range aggs {
		layer, _, _ := strings.Cut(name, ".")
		s := out[layer]
		s.add(a)
		out[layer] = s
	}
	return out
}

// mergeAggs sums aggregates name by name.
func mergeAggs(as ...map[string]agg) map[string]agg {
	out := make(map[string]agg)
	for _, a := range as {
		for k, v := range a {
			s := out[k]
			s.add(v)
			out[k] = s
		}
	}
	return out
}
