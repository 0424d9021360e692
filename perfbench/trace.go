package main

import (
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracedPrefix starts the X-Request-ID of every traced request; the
// middleware records spans only for those, so health probes and untraced
// rounds add no spans.
const tracedPrefix = "t."

// span is one timed interval at a layer boundary. Spans of one request
// share its request ID. Parent (0 for a root) and SelfNS are filled in by
// link; times are nanoseconds since the tracer started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	Request string `json:"request"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	SelfNS  int64  `json:"self_ns"`
}

// layerDepth orders layers from the client inwards. A span's parent is
// the innermost span of a shallower layer with the same request ID whose
// interval contains it.
var layerDepth = map[string]int{"client": 0, "fabric": 1, "server": 2, "engine": 2}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(layer, name, req string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Layer: layer, Name: name, Request: req,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(),
	})
	t.mu.Unlock()
}

// wrap times every traced request h serves as a span of the given layer.
// A nil tracer returns h itself.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := r.Header.Get("X-Request-ID")
		if !strings.HasPrefix(req, tracedPrefix) {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(layer, routeName(r), req, start, time.Now())
	})
}

// routeName names a job-API request the way the server's metrics do.
func routeName(r *http.Request) string {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		return "jobs_submit"
	case strings.HasSuffix(r.URL.Path, "/events"):
		return "jobs_events"
	case strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		return "jobs_get"
	}
	return r.URL.Path
}

// link resolves every span's parent and self time — its duration minus
// the part of it its children cover — and returns the spans.
func (t *tracer) link() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	byReq := map[string][]int{}
	for i, s := range t.spans {
		byReq[s.Request] = append(byReq[s.Request], i)
	}
	children := map[int][]int{}
	for _, idx := range byReq {
		for _, i := range idx {
			s := &t.spans[i]
			parent := -1
			for _, j := range idx {
				p := t.spans[j]
				if layerDepth[p.Layer] >= layerDepth[s.Layer] || p.StartNS > s.StartNS || p.EndNS < s.EndNS {
					continue
				}
				if parent < 0 || layerDepth[p.Layer] > layerDepth[t.spans[parent].Layer] {
					parent = j
				}
			}
			if parent >= 0 {
				s.Parent = t.spans[parent].ID
				children[parent] = append(children[parent], i)
			}
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfNS = s.EndNS - s.StartNS - t.covered(children[i])
	}
	return append([]span(nil), t.spans...)
}

// covered returns the length of the union of the spans' intervals.
func (t *tracer) covered(idx []int) int64 {
	iv := make([][2]int64, len(idx))
	for k, i := range idx {
		iv[k] = [2]int64{t.spans[i].StartNS, t.spans[i].EndNS}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64
	for k, v := range iv {
		if k == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}
