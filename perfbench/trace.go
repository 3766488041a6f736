package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans of one serve-zipf
// request share Req; Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    int64  `json:"req,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1, Req: req})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// do runs fn inside a span and returns its duration in seconds.
func (t *tracer) do(name string, parent int, fn func(id int) error) (float64, error) {
	id := t.begin(name, parent, 0)
	start := time.Now()
	err := fn(id)
	d := time.Since(start).Seconds()
	t.end(id)
	return d, err
}

// writeJSON writes the environment stamp and every span as one JSON object.
func (t *tracer) writeJSON(path, env string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	t.mu.Lock()
	err = json.NewEncoder(f).Encode(struct {
		Env   string `json:"env"`
		Spans []span `json:"spans"`
	}{env, t.spans})
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	name        string
	count       int
	total, self time.Duration
}

// layers returns per-name totals and self times. A span's self time is its
// duration minus the part of its interval that its children cover (the
// union, since concurrent children overlap).
func (t *tracer) layers() []layerRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
		}
		d := s.End - s.Start
		r.count++
		r.total += time.Duration(d)
		r.self += time.Duration(d - covered(s, children[s.ID]))
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if k.End >= 0 && hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			sum += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		sum += curHi - curLo
	}
	return sum
}

// printLayers writes the per-layer table: span count, total and self time.
func (t *tracer) printLayers(w io.Writer) {
	fmt.Fprintf(w, "%-34s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, r := range t.layers() {
		fmt.Fprintf(w, "%-34s %8d %12.4f %12.4f\n", r.name, r.count, r.total.Seconds(), r.self.Seconds())
	}
}
