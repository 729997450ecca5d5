package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dampi/internal/core"
)

// span is one timed call across a layer boundary. Parent is the id of the
// span that caused it (0 for a root). Times are nanoseconds since the
// tracer started. The name is an index into the tracer's name table, which
// keeps the span log free of pointers: the garbage collector, busy during
// replays, then never scans it.
type span struct {
	ID     int64
	Parent int64
	Name   int32
	Start  int64
	End    int64
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use: replay spans arrive from several engine workers at once.
type tracer struct {
	t0   time.Time
	next atomic.Int64

	mu    sync.Mutex
	spans []span
	names []string
	ids   map[string]int32
}

func newTracer() *tracer { return &tracer{t0: time.Now(), ids: map[string]int32{}} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	tr *tracer
	s  span
}

// start opens a span; end closes and records it.
func (t *tracer) start(name string, parent int64) openSpan {
	t.mu.Lock()
	id, ok := t.ids[name]
	if !ok {
		id = int32(len(t.names))
		t.ids[name] = id
		t.names = append(t.names, name)
	}
	t.mu.Unlock()
	return openSpan{tr: t, s: span{ID: t.next.Add(1), Parent: parent, Name: id, Start: int64(time.Since(t.t0))}}
}

func (o openSpan) end() time.Duration {
	o.s.End = int64(time.Since(o.tr.t0))
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, o.s)
	o.tr.mu.Unlock()
	return o.s.dur()
}

// spanTree is the recorded spans indexed for analysis.
type spanTree struct {
	byName   map[string][]span
	children map[int64][]span
}

func (t *tracer) tree() *spanTree {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := &spanTree{byName: map[string][]span{}, children: map[int64][]span{}}
	for _, s := range t.spans {
		st.byName[t.names[s.Name]] = append(st.byName[t.names[s.Name]], s)
		st.children[s.Parent] = append(st.children[s.Parent], s)
	}
	return st
}

// self is the part of s's interval that none of its child spans covers.
// Children may overlap (parallel replays), so their union is subtracted.
func (st *spanTree) self(s span) time.Duration {
	kids := append([]span(nil), st.children[s.ID]...)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	covered, reach := int64(0), s.Start
	for _, k := range kids {
		lo, hi := max(k.Start, reach), min(k.End, s.End)
		if hi > lo {
			covered += hi - lo
			reach = hi
		}
	}
	return s.dur() - time.Duration(covered)
}

// durs returns the durations of the spans named name, in unit.
func (st *spanTree) durs(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range st.byName[name] {
		out = append(out, float64(s.dur())/float64(unit))
	}
	return out
}

// selfs returns the self times of the spans named name, in unit.
func (st *spanTree) selfs(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range st.byName[name] {
		out = append(out, float64(st.self(s))/float64(unit))
	}
	return out
}

// total sums the durations of the spans named name.
func (st *spanTree) total(name string) time.Duration {
	var d time.Duration
	for _, s := range st.byName[name] {
		d += s.dur()
	}
	return d
}

// childTotal sums the durations of the children of the spans named name.
func (st *spanTree) childTotal(name string) time.Duration {
	var d time.Duration
	for _, s := range st.byName[name] {
		for _, k := range st.children[s.ID] {
			d += k.dur()
		}
	}
	return d
}

// selfFrac is the summed self time of the spans named name over their
// summed duration.
func (st *spanTree) selfFrac(name string) float64 {
	var self time.Duration
	for _, s := range st.byName[name] {
		self += st.self(s)
	}
	return ratio(float64(self), float64(st.total(name)))
}

// write dumps every span to path as one JSON array.
func (t *tracer) write(path string) error {
	type named struct {
		ID     int64  `json:"id"`
		Parent int64  `json:"parent"`
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]named, len(t.spans))
	for i, s := range t.spans {
		out[i] = named{s.ID, s.Parent, t.names[s.Name], s.Start, s.End}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedRunner is an ExplorerConfig.Runner that records a "core.replay"
// span around every RunContext.Run. It keeps its own RunContexts, one per
// concurrently running replay, so tool state is recycled across replays as
// it is without the seam.
type tracedRunner struct {
	tr     *tracer
	parent func() int64 // the span each replay belongs to

	once  sync.Once
	inner core.ExplorerConfig // the engine's configuration without the seam

	mu   sync.Mutex
	free []*core.RunContext

	counts *replayCounts
}

// replayCounts tallies replays across every runner of a traced run.
type replayCounts struct {
	replays    atomic.Int64
	mismatched atomic.Int64 // replays that could not enforce a forced decision
}

func (r *tracedRunner) run(cfg *core.ExplorerConfig, d *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error) {
	r.once.Do(func() {
		r.inner = *cfg
		r.inner.Runner = nil
	})
	rc := r.get()
	sp := r.tr.start("core.replay", r.parent())
	trace, res, err := rc.Run(d)
	sp.end()
	r.put(rc)
	r.counts.replays.Add(1)
	if res != nil && len(res.Mismatches) > 0 {
		r.counts.mismatched.Add(1)
	}
	return trace, res, err
}

func (r *tracedRunner) get() *core.RunContext {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.free); n > 0 {
		rc := r.free[n-1]
		r.free = r.free[:n-1]
		return rc
	}
	return core.NewRunContext(&r.inner)
}

func (r *tracedRunner) put(rc *core.RunContext) {
	r.mu.Lock()
	r.free = append(r.free, rc)
	r.mu.Unlock()
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
