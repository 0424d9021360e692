package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"diversity/internal/engine"
	"diversity/internal/scenario"
	"diversity/internal/telemetry"
)

// MaxBodyBytes bounds a submission body; inline model specs carrying a
// few thousand faults fit comfortably, while a multi-megabyte payload is
// rejected before decoding. The fabric coordinator applies the same cap,
// so a body the coordinator accepts is a body a node accepts.
const MaxBodyBytes = 4 << 20

// Register mounts the API on mux. Conventionally mux is
// cliutil.NewDebugMux's, so one listener serves the job API next to
// /debug/vars and /debug/pprof/.
func (s *Server) Register(mux *http.ServeMux) {
	mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.Handle("GET /readyz", s.instrument("readyz", s.handleReadyz))
	mux.Handle("GET /v1/scenarios", s.instrument("scenarios", s.handleScenarios))
	mux.Handle("POST /v1/jobs", s.instrument("jobs_submit", s.handleSubmit))
	mux.Handle("GET /v1/jobs", s.instrument("jobs_list", s.handleList))
	mux.Handle("GET /v1/jobs/{id}", s.instrument("jobs_get", s.handleGet))
	mux.Handle("DELETE /v1/jobs/{id}", s.instrument("jobs_cancel", s.handleCancel))
	mux.Handle("GET /v1/jobs/{id}/events", s.instrument("jobs_events", s.handleEvents))
}

// Handler returns a fresh mux with the API registered — the convenient
// form for tests and embedders that do not need the debug routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Register(mux)
	return mux
}

// StatusRecorder wraps a ResponseWriter recording the response status
// while preserving the Flusher behaviour SSE needs. It is exported for
// the fabric coordinator, whose instrumentation middleware records
// per-route/status latency exactly like this package's.
type StatusRecorder struct {
	http.ResponseWriter
	status int
}

// NewStatusRecorder wraps w.
func NewStatusRecorder(w http.ResponseWriter) *StatusRecorder {
	return &StatusRecorder{ResponseWriter: w}
}

// Status returns the recorded status, defaulting to 200 when the
// handler never wrote one.
func (w *StatusRecorder) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

func (w *StatusRecorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *StatusRecorder) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *StatusRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// apiRoutes lists every instrumented route with the status code its
// success path answers. New pre-registers one request-duration
// histogram per pair, so a first scrape already exports the full
// steady-state series set instead of only the routes traffic has hit;
// error-status series still appear on first use.
var apiRoutes = []struct{ name, status string }{
	{"healthz", "200"},
	{"readyz", "200"},
	{"scenarios", "200"},
	{"jobs_submit", "202"},
	{"jobs_list", "200"},
	{"jobs_get", "200"},
	{"jobs_cancel", "202"},
	{"jobs_events", "200"},
}

// maxRequestIDLen bounds an accepted X-Request-ID; longer (or otherwise
// unusable) client values are replaced with a generated ID.
const maxRequestIDLen = 64

// RequestID returns the request's correlation ID: the client's
// X-Request-ID header when it is printable and reasonably sized (so a
// hostile value cannot inject log lines or unbounded label text),
// otherwise a freshly generated run ID. The fabric coordinator applies
// the same sanitizer, so an ID it forwards is an ID a node accepts
// verbatim — one correlation ID survives the whole proxy chain.
func RequestID(r *http.Request) string {
	id := r.Header.Get("X-Request-ID")
	if id == "" || len(id) > maxRequestIDLen {
		return telemetry.NewRunID()
	}
	for _, c := range id {
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '.' || c == ':'
		if !ok {
			return telemetry.NewRunID()
		}
	}
	return id
}

// instrument wraps a handler with the shared request plumbing: the
// X-Request-ID correlation ID (accepted from the client or generated,
// echoed on the response, and threaded through the request context so
// engine runs, traces and log lines all carry it), the per-route/status
// duration histogram "server.request_duration_seconds.<route>.<status>",
// and one structured access-log line per request.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := RequestID(r)
		w.Header().Set("X-Request-ID", reqID)
		ctx := telemetry.ContextWithRunID(r.Context(), reqID)
		r = r.WithContext(ctx)
		sw := NewStatusRecorder(w)
		start := time.Now()
		h(sw, r)
		elapsed := time.Since(start)
		name := "server.request_duration_seconds." + route + "." + strconv.Itoa(sw.Status())
		s.reg.Histogram(name, telemetry.DurationBuckets).Observe(elapsed.Seconds())
		if s.log != nil {
			s.log.InfoContext(ctx, "http request",
				"route", route, "method", r.Method, "path", r.URL.Path,
				"status", sw.Status(), "duration", elapsed, "client", clientKey(r))
		}
	})
}

// WriteJSON writes v as JSON with the given status. Exported so the
// fabric coordinator answers in exactly this package's response shape.
// v is encoded before the status is sent, so a value that cannot be
// encoded (a NaN, say) answers 500 with the error envelope instead of
// the status with an empty body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		buf.Reset()
		status = http.StatusInternalServerError
		enc.Encode(errorBody{Error: fmt.Sprintf("encoding the response failed: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf.Bytes())
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// WriteError writes the uniform error envelope {"error": "..."}.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// DecodeJobSpec decodes one submission body into an engine job: unknown
// fields and data after the spec are rejected, the spec is validated, and
// the stable spec-hash engine ID is computed. It is the submission-side
// parse both the node's submit handler and the fabric coordinator run, so
// a spec the coordinator routes is byte-for-byte a spec the node accepts —
// and the returned engine ID is the routing key that gives identical
// specs node-local cache affinity.
func DecodeJobSpec(r io.Reader) (engine.Job, string, error) {
	var job engine.Job
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&job); err != nil {
		return engine.Job{}, "", fmt.Errorf("decoding job spec: %w", err)
	}
	// A body is one JSON value: whatever followed it would be dropped
	// unread, so only trailing whitespace is accepted.
	if err := dec.Decode(&json.RawMessage{}); err != io.EOF {
		return engine.Job{}, "", errors.New("decoding job spec: unexpected data after the JSON value")
	}
	if err := job.Validate(); err != nil {
		return engine.Job{}, "", err
	}
	engineID, err := job.ID()
	if err != nil {
		return engine.Job{}, "", err
	}
	return job, engineID, nil
}

// clientKey identifies the submitting client for rate limiting: the
// remote IP without the ephemeral port.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready() {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// scenarioView is one row of the discovery listing.
type scenarioView struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Faults      int    `json:"faults"`
}

var (
	scenarioOnce sync.Once
	scenarioList []scenarioView
)

// handleScenarios lists the named scenarios a job's model spec may
// reference. The listing is generated once (scenario generation is
// deterministic, and million-faults allocates a 10^6-fault universe we
// do not want per request) and cached for the process lifetime.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	scenarioOnce.Do(func() {
		for _, name := range scenario.Names() {
			sc, err := scenario.ByName(name, 1)
			if err != nil {
				continue
			}
			scenarioList = append(scenarioList, scenarioView{
				Name:        name,
				Description: sc.Description,
				Faults:      sc.FaultSet.N(),
			})
		}
	})
	WriteJSON(w, http.StatusOK, map[string]any{"scenarios": scenarioList})
}

// specReps returns the replication count of job kinds that have one.
func specReps(job engine.Job) int {
	switch {
	case job.MonteCarlo != nil:
		return job.MonteCarlo.Reps
	case job.RareEvent != nil:
		return job.RareEvent.Reps
	default:
		return 0
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	key := clientKey(r)
	runID, _ := telemetry.RunIDFromContext(r.Context())
	if !s.limiter.allow(key) {
		s.reg.Counter("server.rejected_total.rate_limited").Inc()
		s.reg.Event("submit.rejected", runID, map[string]string{"reason": "rate_limited", "client": key})
		w.Header().Set("Retry-After", strconv.Itoa(s.limiter.retryAfter(key)))
		WriteError(w, http.StatusTooManyRequests, "rate limit exceeded: client %s is over %g requests/second (burst %d)", key, s.cfg.RatePerSec, s.cfg.Burst)
		return
	}

	job, engineID, err := DecodeJobSpec(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.cfg.MaxReps > 0 {
		if reps := specReps(job); reps > s.cfg.MaxReps {
			WriteError(w, http.StatusBadRequest, "replication count %d exceeds this server's cap of %d", reps, s.cfg.MaxReps)
			return
		}
	}

	js, err := s.submit(job, engineID, runID)
	switch {
	case err == nil:
	case errors.Is(err, errQueueFull):
		s.reg.Counter("server.rejected_total.queue_full").Inc()
		s.reg.Event("submit.rejected", runID, map[string]string{"reason": "queue_full", "job": engineID})
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusServiceUnavailable, "job queue full (depth %d): retry shortly", s.cfg.QueueDepth)
		return
	case errors.Is(err, errDraining):
		s.reg.Counter("server.rejected_total.draining").Inc()
		s.reg.Event("submit.rejected", runID, map[string]string{"reason": "draining", "job": engineID})
		w.Header().Set("Retry-After", "10")
		WriteError(w, http.StatusServiceUnavailable, "server is draining and accepts no new jobs")
		return
	default:
		WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+js.id)
	WriteJSON(w, http.StatusAccepted, s.viewOf(js, false))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.list()
	views := make([]jobView, 0, len(jobs))
	for _, js := range jobs {
		views = append(views, s.viewOf(js, false))
	}
	WriteJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	js, ok := s.lookup(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	WriteJSON(w, http.StatusOK, s.viewOf(js, true))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	js, ok := s.lookup(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.requestCancel(js)
	WriteJSON(w, http.StatusAccepted, s.viewOf(js, false))
}

// handleEvents streams a job's progress as Server-Sent Events: one
// "progress" event per report (per stage, Done counts are monotonically
// non-decreasing), then a single "done" event carrying the terminal job
// view — result included — after which the stream closes. Subscribing
// to a finished job yields the "done" event immediately.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	js, ok := s.lookup(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ch, cur, hasCur := js.tracker.subscribe()
	defer js.tracker.unsubscribe(ch)
	if hasCur {
		WriteSSE(w, flusher, "progress", progressView{Run: js.runID, Stage: cur.Stage, Done: cur.Done, Total: cur.Total})
	}

	keepalive := time.NewTicker(15 * time.Second)
	defer keepalive.Stop()
	for {
		select {
		case p := <-ch:
			WriteSSE(w, flusher, "progress", progressView{Run: js.runID, Stage: p.Stage, Done: p.Done, Total: p.Total})
		case <-js.tracker.Done():
			// Drain reports published before the terminal transition so
			// the stream never ends short of the last counts.
			for {
				select {
				case p := <-ch:
					WriteSSE(w, flusher, "progress", progressView{Run: js.runID, Stage: p.Stage, Done: p.Done, Total: p.Total})
					continue
				default:
				}
				break
			}
			WriteSSE(w, flusher, "done", s.viewOf(js, true))
			return
		case <-keepalive.C:
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-s.drainCh:
			// Server draining: tell the client to re-poll rather than
			// holding the listener open.
			WriteSSE(w, flusher, "draining", map[string]string{"status": "draining"})
			return
		}
	}
}

// WriteSSE emits one named SSE event with a JSON payload. Exported, like
// WriteJSON, so the fabric coordinator streams events in exactly this
// package's wire format.
func WriteSSE(w http.ResponseWriter, flusher http.Flusher, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	flusher.Flush()
}
