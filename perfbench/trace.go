package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one traced call: a layer's public entry point timed from the
// benchmark's side. Spans of one loop or request share id; parent is
// the index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use, since the serve workload's clients share one.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index. A nil tracer records
// nothing, so untraced code paths share the traced ones.
func (t *tracer) begin(name string, id int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	return int32(len(t.spans) - 1)
}

// end closes span i.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// rename renames span i.
func (t *tracer) rename(i int32, name string) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].Name = name
	t.mu.Unlock()
}

// layerTime is one span name's totals: call count, total span time and
// self time (span time minus the part its children cover).
type layerTime struct {
	name        string
	calls       int
	total, self time.Duration
}

// selfTimes aggregates the spans by name. A span's self time is its
// duration minus the union of its children's intervals.
func (t *tracer) selfTimes() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]*layerTime)
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{name: s.Name}
			out[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.calls++
		lt.total += time.Duration(dur)
		lt.self += time.Duration(dur - covered(children[int32(i)], s.Start, s.End))
	}
	return out
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum int64
	cur := lo
	for _, p := range iv {
		a, b := max(p[0], cur), min(p[1], hi)
		if b > a {
			sum += b - a
			cur = b
		}
	}
	return sum
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(&s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTable renders the per-layer self times, largest first, as mean
// microseconds per call.
func selfTable(lts map[string]*layerTime) string {
	var rows []*layerTime
	for _, lt := range lts {
		rows = append(rows, lt)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].self != rows[j].self {
			return rows[i].self > rows[j].self
		}
		return rows[i].name < rows[j].name
	})
	var b strings.Builder
	fmt.Fprintf(&b, "  %-22s %9s %12s %12s\n", "span", "calls", "self_us/call", "total_us/call")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-22s %9d %12.2f %12.2f\n", r.name, r.calls,
			us(r.self)/float64(r.calls), us(r.total)/float64(r.calls))
	}
	return b.String()
}

// meanSelfUS is the mean self time in microseconds per call of one span
// name, 0 when the span never ran.
func meanSelfUS(lts map[string]*layerTime, name string) float64 {
	lt := lts[name]
	if lt == nil || lt.calls == 0 {
		return 0
	}
	return us(lt.self) / float64(lt.calls)
}
