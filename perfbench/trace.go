package main

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Name is "<layer>.<op>";
// Parent is 0 for a root. Spans of one request share the root's tree.
type span struct {
	ID, Parent int64
	Name       string
	Start, End time.Time
}

func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced requests pay one nil check per span.
type tracer struct {
	mu    sync.Mutex
	next  int64
	spans []span
}

// add records a finished span and returns its ID for children to cite.
func (t *tracer) add(name string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Name: name, Start: start, End: end})
	return t.next
}

// timed runs fn inside a span and returns its duration in seconds.
func (t *tracer) timed(name string, parent int64, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, parent, start, end)
	return end.Sub(start).Seconds()
}

// durations returns the seconds of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// find returns the span with the given ID and its children.
func (t *tracer) find(id int64) (span, []span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s span
	var kids []span
	for _, x := range t.spans {
		switch {
		case x.ID == id:
			s = x
		case x.Parent == id:
			kids = append(kids, x)
		}
	}
	return s, kids
}

// dur is the length of one span in seconds.
func (t *tracer) dur(id int64) float64 {
	s, _ := t.find(id)
	return s.dur().Seconds()
}

// childTime is the summed length of one span's children in seconds.
func (t *tracer) childTime(id int64) float64 {
	_, kids := t.find(id)
	var sum float64
	for _, k := range kids {
		sum += k.dur().Seconds()
	}
	return sum
}

// selfTimes returns, for every root span in keep, the self time of each
// layer inside its tree: a span's duration minus the part of its interval
// its children cover, summed per layer.
func (t *tracer) selfTimes(keep map[int64]bool) []map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	var roots []span
	for _, s := range t.spans {
		if s.Parent == 0 {
			if keep[s.ID] {
				roots = append(roots, s)
			}
			continue
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make([]map[string]float64, 0, len(roots))
	for _, r := range roots {
		self := map[string]float64{}
		var walk func(s span)
		walk = func(s span) {
			kids := children[s.ID]
			self[s.layer()] += (s.dur() - covered(s, kids)).Seconds()
			for _, k := range kids {
				walk(k)
			}
		}
		walk(r)
		out = append(out, self)
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		s, e := k.Start, k.End
		if s.Before(parent.Start) {
			s = parent.Start
		}
		if e.After(parent.End) {
			e = parent.End
		}
		if e.After(s) {
			iv = append(iv, [2]time.Time{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, x := range iv {
		switch {
		case i == 0:
			cur = x
		case !x[0].After(cur[1]):
			if x[1].After(cur[1]) {
				cur[1] = x[1]
			}
		default:
			total += cur[1].Sub(cur[0])
			cur = x
		}
	}
	if len(iv) > 0 {
		total += cur[1].Sub(cur[0])
	}
	return total
}
