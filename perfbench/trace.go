package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Times are offsets from the start of the run. CPU
// and Alloc are process-wide deltas over the span, so they are exact
// only for spans nothing else overlaps (phases, passes); per-call
// spans and aggregates leave them zero. An aggregate folds Count calls
// into one record whose Busy is their summed duration.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	CPU    time.Duration `json:"cpu_ns,omitempty"`
	Alloc  uint64        `json:"alloc_bytes,omitempty"`
	Count  int64         `json:"count,omitempty"`
	Busy   time.Duration `json:"busy_ns,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how untraced runs call the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// region is an open coarse span.
type region struct {
	t      *tracer
	id     int
	parent int
	name   string
	at     probe
}

// begin opens a coarse span with CPU and allocation accounting.
func (t *tracer) begin(name string, parent int) *region {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id}) // reserve the id
	t.mu.Unlock()
	return &region{t: t, id: id, parent: parent, name: name, at: readProbe()}
}

// end closes the span and returns it.
func (r *region) end() span {
	if r == nil {
		return span{}
	}
	w := since(r.at)
	s := span{
		ID: r.id, Parent: r.parent, Name: r.name,
		Start: r.at.wall.Sub(r.t.t0), End: r.at.wall.Add(w.wall).Sub(r.t.t0),
		CPU: w.cpu, Alloc: w.alloc,
	}
	r.t.mu.Lock()
	r.t.spans[r.id-1] = s
	r.t.mu.Unlock()
	return s
}

// ID returns the span id to parent children on (0 for nil).
func (r *region) ID() int {
	if r == nil {
		return 0
	}
	return r.id
}

// call records one finished per-call span.
func (t *tracer) call(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	t.mu.Unlock()
}

// aggregate accumulates a hot call's count and summed duration
// without one span per call.
type aggregate struct {
	n    atomic.Int64
	busy atomic.Int64
}

func (a *aggregate) add(d time.Duration) {
	a.n.Add(1)
	a.busy.Add(int64(d))
}

// flush records the aggregate as one span covering [start, end].
func (t *tracer) flush(name string, parent int, start, end time.Time, a *aggregate) span {
	s := span{Parent: parent, Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0),
		Count: a.n.Load(), Busy: time.Duration(a.busy.Load())}
	t.mu.Lock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// all returns a copy of the recorded spans.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// sumNamed totals the durations (or Busy, for aggregates) and counts
// of every span with the given name.
func sumNamed(spans []span, name string) (total time.Duration, n int) {
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		if s.Count > 0 {
			total += s.Busy
			n += int(s.Count)
		} else {
			total += s.dur()
			n++
		}
	}
	return total, n
}

// writeSpans stores the run's spans and provenance under
// .bench_build/trace in the working directory.
func writeSpans(o options, prov map[string]any, spans []span) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	data, err := json.Marshal(map[string]any{"provenance": prov, "spans": spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(name, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(spans), name)
	return nil
}

// ladderRow is one line of the layer ladder: a layer's busy time and
// its share of the row it names as base.
type ladderRow struct {
	layer string
	busy  float64 // in unit
	unit  string
	base  string // the row this one is a share of ("" for a top row)
	share float64
	note  string
}

// rung builds a row whose share is busy over the base row's busy.
func rung(layer string, busy float64, unit string, base *ladderRow, note string) ladderRow {
	r := ladderRow{layer: layer, busy: busy, unit: unit, note: note}
	if base != nil {
		r.base = base.layer
		r.share = ratio(busy, base.busy)
	}
	return r
}

func printLadder(w io.Writer, workload string, rows []ladderRow) {
	fmt.Fprintf(w, "layer ladder (%s): busy time per op and share of the named base row\n", workload)
	fmt.Fprintf(w, "  %-40s %14s  %-8s %8s  %-28s %s\n", "layer", "busy", "unit", "share", "of base", "note")
	fmt.Fprintf(w, "  %s\n", strings.Repeat("-", 110))
	for _, r := range rows {
		share := "-"
		if r.base != "" {
			share = fmt.Sprintf("%.4f", r.share)
		}
		fmt.Fprintf(w, "  %-40s %14.4f  %-8s %8s  %-28s %s\n", r.layer, r.busy, r.unit, share, r.base, r.note)
	}
}
