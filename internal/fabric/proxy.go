package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"diversity/internal/server"
	"diversity/internal/telemetry"
)

// maxProxyResponse bounds a buffered upstream response body. Job views
// are a few KB and full listings a few hundred KB; the cap only exists
// so a misbehaving upstream cannot balloon the coordinator.
const maxProxyResponse = 32 << 20

// Register mounts the coordinator's API on mux — the exact route set a
// serve node registers, so a client (or load balancer) cannot tell the
// two apart by surface. Conventionally mux is cliutil.NewDebugMux's, so
// the same listener carries /metrics and the debug routes.
func (c *Coordinator) Register(mux *http.ServeMux) {
	mux.Handle("GET /healthz", c.instrument("healthz", c.handleHealthz))
	mux.Handle("GET /readyz", c.instrument("readyz", c.handleReadyz))
	mux.Handle("GET /v1/scenarios", c.instrument("scenarios", c.handleScenarios))
	mux.Handle("POST /v1/jobs", c.instrument("jobs_submit", c.handleSubmit))
	mux.Handle("GET /v1/jobs", c.instrument("jobs_list", c.handleList))
	mux.Handle("GET /v1/jobs/{id}", c.instrument("jobs_get", c.handleGet))
	mux.Handle("DELETE /v1/jobs/{id}", c.instrument("jobs_cancel", c.handleCancel))
	mux.Handle("GET /v1/jobs/{id}/events", c.instrument("jobs_events", c.handleEvents))
}

// Handler returns a fresh mux with the API registered — the convenient
// form for tests and embedders that do not need the debug routes.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	c.Register(mux)
	return mux
}

// instrument wraps a handler with the shared request plumbing, reusing
// the serving layer's X-Request-ID sanitizer and status recorder: the
// correlation ID is accepted or generated once at the coordinator,
// echoed on the response, threaded through the request context, and
// forwarded verbatim to the node — so one ID names the request on both
// hops. Latency lands in
// "fabric.request_duration_seconds.<route>.<status>".
func (c *Coordinator) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := server.RequestID(r)
		w.Header().Set("X-Request-ID", reqID)
		ctx := telemetry.ContextWithRunID(r.Context(), reqID)
		r = r.WithContext(ctx)
		sw := server.NewStatusRecorder(w)
		start := time.Now()
		h(sw, r)
		elapsed := time.Since(start)
		name := "fabric.request_duration_seconds." + route + "." + strconv.Itoa(sw.Status())
		c.reg.Histogram(name, telemetry.DurationBuckets).Observe(elapsed.Seconds())
		if c.log != nil {
			c.log.InfoContext(ctx, "http request",
				"route", route, "method", r.Method, "path", r.URL.Path,
				"status", sw.Status(), "duration", elapsed)
		}
	})
}

// reqIDOf returns the correlation ID instrument stored in the request
// context.
func reqIDOf(r *http.Request) string {
	id, _ := telemetry.RunIDFromContext(r.Context())
	return id
}

// upstream is one buffered node response: enough to decide, annotate and
// replay it to the client.
type upstream struct {
	status int
	header http.Header
	body   []byte
}

// forward performs one non-streaming upstream request against node idx,
// buffering the response. A transport-level failure marks the node down
// (so failover does not wait out a probe interval) and returns the
// error.
func (c *Coordinator) forward(ctx context.Context, idx int, method, path string, body []byte, reqID string) (*upstream, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ProxyTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.nodes[idx].base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Request-ID", reqID)
	resp, err := c.proxy.Do(req)
	if err != nil {
		c.markDown(idx)
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyResponse))
	if err != nil {
		c.markDown(idx)
		return nil, err
	}
	return &upstream{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

// passHeaders lists the response headers replayed to the client; the
// backpressure contract travels in Retry-After, resource location in
// Location.
var passHeaders = []string{"Content-Type", "Location", "Retry-After"}

// replay writes a buffered upstream response to the client.
func replay(w http.ResponseWriter, up *upstream) {
	for _, h := range passHeaders {
		if v := up.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(up.status)
	w.Write(up.body)
}

// reject answers a fabric-level rejection: 503 with Retry-After, counted
// under fabric.rejected_total.<reason> and flight-recorded.
func (c *Coordinator) reject(w http.ResponseWriter, reqID, reason, retryAfter, format string, args ...any) {
	c.reg.Counter("fabric.rejected_total." + reason).Inc()
	c.reg.Event("fabric.rejected", reqID, map[string]string{"reason": reason})
	w.Header().Set("Retry-After", retryAfter)
	server.WriteError(w, http.StatusServiceUnavailable, format, args...)
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports routability: at least one node up and not
// draining. The node tallies ride along so a load balancer check is
// also a one-glance fleet summary.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body := map[string]any{
		"status":  "ok",
		"nodes":   len(c.nodes),
		"nodesUp": c.upCount(),
	}
	if !c.ready() {
		body["status"] = "unavailable"
		server.WriteJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	server.WriteJSON(w, http.StatusOK, body)
}

// handleScenarios proxies the scenario listing from the first healthy
// node — every node serves the identical deterministic listing.
func (c *Coordinator) handleScenarios(w http.ResponseWriter, r *http.Request) {
	reqID := reqIDOf(r)
	for idx := range c.nodes {
		if !c.nodes[idx].up.Load() {
			continue
		}
		up, err := c.forward(r.Context(), idx, http.MethodGet, "/v1/scenarios", nil, reqID)
		if err != nil {
			continue
		}
		replay(w, up)
		return
	}
	c.reject(w, reqID, "node_unavailable", "1", "no serve node is available: retry shortly")
}

// handleSubmit routes a submission to its rendezvous home node. The
// body is parsed once at the coordinator — invalid specs fail here with
// 400, before any network hop — and forwarded byte-for-byte, so the
// node-side validation, replication cap and queue admission behave
// exactly as they would for a direct client. Node backpressure
// (queue-full 503, rate-limit 429, draining 503) replays to the client
// with its Retry-After intact; the fabric adds exactly one rejection of
// its own: 503 when no healthy node exists.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	reqID := reqIDOf(r)
	if c.isDraining() {
		c.reject(w, reqID, "draining", "10", "coordinator is draining and accepts no new jobs")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, server.MaxBodyBytes))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "reading job spec: %v", err)
		return
	}
	_, engineID, err := server.DecodeJobSpec(bytes.NewReader(body))
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := routeKey(engineID)
	for pos, idx := range c.rank(key) {
		if !c.nodes[idx].up.Load() {
			continue
		}
		up, err := c.forward(r.Context(), idx, http.MethodPost, "/v1/jobs", body, reqID)
		if err != nil {
			continue // node marked down; next in hash order
		}
		if pos > 0 {
			c.reg.Counter("fabric.node_reroutes_total").Inc()
			c.reg.Event("fabric.reroute", reqID, map[string]string{
				"job": engineID, "to": c.nodes[idx].name,
			})
			if c.log != nil {
				c.log.InfoContext(r.Context(), "job rerouted past its home node",
					"job", engineID, "to", c.nodes[idx].name)
			}
		}
		replay(w, up)
		return
	}
	c.reject(w, reqID, "no_node", "1", "no serve node is available to take the job: retry shortly")
}

// resolve performs a routed request for an existing submission ID,
// trying the nodes in rendezvous order of the ID's routing key. A 404
// moves on to the next candidate (after a failover the job may live off
// its rendezvous home); any other answer wins. sawDown reports that at
// least one candidate was unreachable, which turns an all-404 sweep into
// a 503 rather than a lying 404.
func (c *Coordinator) resolve(ctx context.Context, method, path, subID, reqID string) (up *upstream, idx int, sawDown bool) {
	for _, i := range c.candidates(subID) {
		if !c.nodes[i].up.Load() {
			sawDown = true
			continue
		}
		resp, err := c.forward(ctx, i, method, path, nil, reqID)
		if err != nil {
			sawDown = true
			continue
		}
		if resp.status == http.StatusNotFound {
			continue
		}
		return resp, i, sawDown
	}
	return nil, 0, sawDown
}

// jobStatusView is the slice of a job view the coordinator inspects:
// enough to recognise terminal states and the contractual "restart"
// failure reason.
type jobStatusView struct {
	Status string `json:"status"`
	Error  string `json:"error"`
}

func (v jobStatusView) terminal() bool {
	return v.Status == "done" || v.Status == "failed" || v.Status == "cancelled"
}

// noteRestart flight-records a job view that surfaces the durability
// contract's restart re-mark (status failed, error containing
// "restart") — the fabric-level trace of a node crash showing up
// through the proxy.
func (c *Coordinator) noteRestart(up *upstream, subID, reqID string, idx int) {
	if up.status != http.StatusOK {
		return
	}
	var v jobStatusView
	if json.Unmarshal(up.body, &v) != nil {
		return
	}
	if v.Status == "failed" && strings.Contains(v.Error, "restart") {
		c.reg.Event("fabric.restart_surfaced", reqID, map[string]string{
			"id": subID, "node": c.nodes[idx].name,
		})
	}
}

func (c *Coordinator) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	reqID := reqIDOf(r)
	up, idx, sawDown := c.resolve(r.Context(), http.MethodGet, "/v1/jobs/"+id, id, reqID)
	if up == nil {
		if sawDown {
			c.reject(w, reqID, "node_unavailable", "1", "job %q may live on a node that is down: retry shortly", id)
			return
		}
		server.WriteError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	c.noteRestart(up, id, reqID, idx)
	replay(w, up)
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	reqID := reqIDOf(r)
	up, _, sawDown := c.resolve(r.Context(), http.MethodDelete, "/v1/jobs/"+id, id, reqID)
	if up == nil {
		if sawDown {
			c.reject(w, reqID, "node_unavailable", "1", "job %q may live on a node that is down: retry shortly", id)
			return
		}
		server.WriteError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	replay(w, up)
}

// handleList merges the retained-job listings of every reachable node.
// Jobs sort by submission time across the fabric, so the merged view
// reads like one node's. Down nodes are skipped — their jobs reappear
// when they do; with every node down the listing is a 503, not an empty
// lie.
func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	reqID := reqIDOf(r)
	type entry struct {
		raw       json.RawMessage
		submitted string
	}
	var merged []entry
	reached := 0
	for idx := range c.nodes {
		if !c.nodes[idx].up.Load() {
			continue
		}
		up, err := c.forward(r.Context(), idx, http.MethodGet, "/v1/jobs", nil, reqID)
		if err != nil || up.status != http.StatusOK {
			continue
		}
		reached++
		var payload struct {
			Jobs []json.RawMessage `json:"jobs"`
		}
		if json.Unmarshal(up.body, &payload) != nil {
			continue
		}
		for _, raw := range payload.Jobs {
			var meta struct {
				Submitted string `json:"submitted"`
			}
			json.Unmarshal(raw, &meta)
			merged = append(merged, entry{raw: raw, submitted: meta.Submitted})
		}
	}
	if reached == 0 {
		c.reject(w, reqID, "node_unavailable", "1", "no serve node is available: retry shortly")
		return
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].submitted < merged[j].submitted })
	jobs := make([]json.RawMessage, len(merged))
	for i, e := range merged {
		jobs[i] = e.raw
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"jobs": jobs})
}

// handleEvents proxies a job's SSE progress stream from its node:
// frames — late-subscriber snapshots, progress, keepalive comments, the
// terminal done event — pass through line by line with a flush per
// line, so proxy buffering never stalls a live stream. If the upstream
// connection dies short of a terminal event (the node crashed), the
// coordinator switches to restart recovery: it re-polls the job view
// across the fabric until the restarted node surfaces a terminal state
// — for an interrupted job, failed with the contractual "restart"
// reason — and forwards it as the stream's done event. The client keeps
// one connection and still gets exactly the single-node contract:
// progress, then one terminal event.
func (c *Coordinator) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	reqID := reqIDOf(r)
	flusher, ok := w.(http.Flusher)
	if !ok {
		server.WriteError(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}

	// The upstream stream must die with the client connection or the
	// coordinator drain, whichever comes first.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-c.drainCh:
			cancel()
		case <-ctx.Done():
		}
	}()

	resp, sawDown := c.openStream(ctx, id, reqID)
	if resp == nil {
		if sawDown {
			c.reject(w, reqID, "node_unavailable", "1", "job %q may live on a node that is down: retry shortly", id)
			return
		}
		server.WriteError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	defer resp.Body.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	c.reg.Gauge("fabric.sse_streams_inflight").Set(float64(c.sse.Add(1)))
	defer func() {
		c.reg.Gauge("fabric.sse_streams_inflight").Set(float64(c.sse.Add(-1)))
	}()

	if copyEvents(w, flusher, resp.Body) || ctx.Err() != nil {
		if c.isDraining() {
			server.WriteSSE(w, flusher, "draining", map[string]string{"status": "draining"})
		}
		return
	}

	// Upstream died mid-stream: restart recovery.
	c.recoverStream(ctx, w, flusher, id, reqID)
}

// copyEvents copies an SSE stream line by line, flushing after each
// line, and reports whether it saw a terminal event: done (job finished)
// or draining (node shutting down gracefully — the single-node contract
// tells the client to re-poll, and the coordinator keeps that contract
// rather than silently absorbing it). A final line without a newline is
// copied too.
func copyEvents(w io.Writer, flusher http.Flusher, body io.Reader) (terminalSeen bool) {
	reader := bufio.NewReader(body)
	for {
		line, err := reader.ReadString('\n')
		if len(line) > 0 {
			if strings.HasPrefix(line, "event: done") || strings.HasPrefix(line, "event: draining") {
				terminalSeen = true
			}
			io.WriteString(w, line)
			flusher.Flush()
		}
		if err != nil {
			return terminalSeen
		}
	}
}

// openStream opens the upstream SSE connection, walking the candidates
// like resolve.
func (c *Coordinator) openStream(ctx context.Context, subID, reqID string) (resp *http.Response, sawDown bool) {
	for _, i := range c.candidates(subID) {
		if !c.nodes[i].up.Load() {
			sawDown = true
			continue
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.nodes[i].base+"/v1/jobs/"+subID+"/events", nil)
		if err != nil {
			continue
		}
		req.Header.Set("X-Request-ID", reqID)
		r, err := c.proxy.Do(req)
		if err != nil {
			c.markDown(i)
			sawDown = true
			continue
		}
		if r.StatusCode == http.StatusNotFound {
			r.Body.Close()
			continue
		}
		if r.StatusCode != http.StatusOK {
			r.Body.Close()
			sawDown = true
			continue
		}
		return r, sawDown
	}
	return nil, sawDown
}

// recoverStream is the SSE restart-recovery loop: poll the job view
// across the fabric until a terminal state surfaces, then forward it as
// the done event. An interrupted job comes back as failed with the
// contractual "restart" reason once its node replays the durable
// ledger; a job that actually finished before the crash comes back done
// with its full result. Keepalive comments hold the client connection
// across the node's restart window.
func (c *Coordinator) recoverStream(ctx context.Context, w http.ResponseWriter, flusher http.Flusher, subID, reqID string) {
	c.reg.Event("fabric.sse_recovering", reqID, map[string]string{"id": subID})
	ticker := time.NewTicker(c.cfg.RecoveryInterval)
	defer ticker.Stop()
	keepaliveEvery := int(15 * time.Second / c.cfg.RecoveryInterval)
	if keepaliveEvery < 1 {
		keepaliveEvery = 1
	}
	for polls := 1; ; polls++ {
		select {
		case <-ctx.Done():
			if c.isDraining() {
				server.WriteSSE(w, flusher, "draining", map[string]string{"status": "draining"})
			}
			return
		case <-ticker.C:
		}
		up, idx, _ := c.resolve(ctx, http.MethodGet, "/v1/jobs/"+subID, subID, reqID)
		if up != nil && up.status == http.StatusOK {
			var v jobStatusView
			if json.Unmarshal(up.body, &v) == nil && v.terminal() {
				if v.Status == "failed" && strings.Contains(v.Error, "restart") {
					c.reg.Event("fabric.restart_recovered", reqID, map[string]string{
						"id": subID, "node": c.nodes[idx].name,
					})
				}
				// The buffered view is indented JSON; SSE data must be one
				// line.
				var compact bytes.Buffer
				if json.Compact(&compact, up.body) == nil {
					fmt.Fprintf(w, "event: done\ndata: %s\n\n", compact.Bytes())
					flusher.Flush()
				}
				return
			}
		}
		if polls%keepaliveEvery == 0 {
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
		}
	}
}
