package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share a request id; parent 0 marks a top-level span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run; they are written out
// once, when the run ends. A nil *tracer records nothing, so untraced
// runs pay only a nil check at each boundary.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	reqs  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// request allocates a request id for one operation.
func (t *tracer) request() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return int64(len(t.spans))
}

// end closes span id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (a program
// timer reported through a public hook).
func (t *tracer) add(name string, parent, req int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return int64(len(t.spans))
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, req int64, fn func()) {
	id := t.begin(name, parent, req)
	fn()
	t.end(id)
}

// analysis is what the span tree says about the run.
type analysis struct {
	self  map[string]time.Duration // summed self time by span name
	count map[string]int           // spans by name
	// covered and total sum, over top-level spans by name, the part of
	// each interval some child covers and the whole interval.
	covered, total map[string]time.Duration
}

// analyze computes self times (a span's duration minus the union of its
// children's intervals, clipped to the span) and top-level coverage.
func (t *tracer) analyze() *analysis {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := &analysis{
		self: map[string]time.Duration{}, count: map[string]int{},
		covered: map[string]time.Duration{}, total: map[string]time.Duration{},
	}
	children := make(map[int64][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		dur := s.End - s.Start
		cov := union(children[s.ID], s.Start, s.End)
		a.self[s.Name] += time.Duration(dur - cov)
		a.count[s.Name]++
		if s.Parent == 0 {
			a.covered[s.Name] += time.Duration(cov)
			a.total[s.Name] += time.Duration(dur)
		}
	}
	return a
}

// union is the length of the union of intervals clipped to [lo, hi].
func union(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var n, curS, curE int64
	open := false
	for _, v := range iv {
		s, e := max(v[0], lo), min(v[1], hi)
		if e <= s {
			continue
		}
		switch {
		case !open:
			curS, curE, open = s, e, true
		case s > curE:
			n += curE - curS
			curS, curE = s, e
		case e > curE:
			curE = e
		}
	}
	if open {
		n += curE - curS
	}
	return n
}

// selfMs is the summed self time of spans named name, in ms, divided by
// per (the number of volumes or reads the metric is normalized to).
func (a *analysis) selfMs(name string, per int) float64 {
	return ratio(ms(a.self[name]), float64(per))
}

// unattributed is the share of the named top-level spans (all of them
// when prefix is "") that no child span covers.
func (a *analysis) unattributed(prefix string) float64 {
	var cov, tot time.Duration
	for n, d := range a.total {
		if strings.HasPrefix(n, prefix) {
			tot += d
			cov += a.covered[n]
		}
	}
	return 1 - ratio(float64(cov), float64(tot))
}

// write saves every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
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
