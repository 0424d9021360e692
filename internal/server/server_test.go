package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"diversity/internal/engine"
	"diversity/internal/montecarlo"
)

// newTestServer builds a started server around an optional stub runner
// and serves it over httptest. The cleanup shuts the pool down; tests
// using blocking stubs must release them before returning.
func newTestServer(t *testing.T, cfg Config, run func(ctx context.Context, job engine.Job, progress func(engine.Progress)) (*engine.Result, error)) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	if run != nil {
		s.runJob = run
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})
	return s, ts
}

const analyticJobJSON = `{"kind":"analytic","analytic":{"model":{"scenario":"safety-grade","scenarioSeed":1},"k":2,"confidence":0.99}}`

const mcJobJSON = `{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade","scenarioSeed":1},"versions":2,"reps":5000,"workers":2,"seed":1}}`

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, jobView) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var v jobView
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decoding submit response: %v", err)
		}
	}
	return resp, v
}

// pollUntilTerminal polls GET /v1/jobs/{id} until the job leaves the
// queue and the pool.
func pollUntilTerminal(t *testing.T, ts *httptest.Server, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		var v jobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding job view: %v", err)
		}
		if jobStatus(v.Status).terminal() {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return jobView{}
}

func TestSubmitAndPollRealEngine(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8}, nil)

	resp, v := postJob(t, ts, mcJobJSON)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+v.ID {
		t.Fatalf("Location = %q, want /v1/jobs/%s", loc, v.ID)
	}
	if v.Status != string(statusQueued) {
		t.Fatalf("fresh job status = %q, want queued", v.Status)
	}
	if !strings.HasPrefix(v.JobID, "job-") {
		t.Fatalf("jobId = %q, want job-<hash> form", v.JobID)
	}

	final := pollUntilTerminal(t, ts, v.ID)
	if final.Status != string(statusDone) {
		t.Fatalf("final status = %q (error %q), want done", final.Status, final.Error)
	}
	if final.Result == nil || final.Result.MonteCarlo == nil {
		t.Fatal("final view carries no Monte-Carlo result")
	}
	if final.Result.FromCache {
		t.Fatal("first execution unexpectedly served from cache")
	}
	if final.Result.JobID != v.JobID {
		t.Fatalf("result jobId = %q, submission jobId = %q; want equal", final.Result.JobID, v.JobID)
	}
	mc := final.Result.MonteCarlo
	if mc.Reps != 5000 {
		t.Fatalf("result reps = %d, want 5000", mc.Reps)
	}
	if mc.Version.Mean < 0 || mc.System.Mean < 0 {
		t.Fatalf("summary means negative: version %v system %v", mc.Version.Mean, mc.System.Mean)
	}
}

// TestCacheHitOnResubmit is the acceptance-criterion path: the same
// fixed-seed spec submitted twice produces an identical result, with the
// second response marked as a cache hit.
func TestCacheHitOnResubmit(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8}, nil)

	_, first := postJob(t, ts, mcJobJSON)
	v1 := pollUntilTerminal(t, ts, first.ID)
	if v1.Status != string(statusDone) || v1.Result.FromCache {
		t.Fatalf("first run: status %q fromCache %v, want done/false", v1.Status, v1.Result.FromCache)
	}

	_, second := postJob(t, ts, mcJobJSON)
	if second.ID == first.ID {
		t.Fatalf("resubmission reused submission ID %q; want a fresh resource", second.ID)
	}
	v2 := pollUntilTerminal(t, ts, second.ID)
	if v2.Status != string(statusDone) {
		t.Fatalf("second run status = %q (error %q), want done", v2.Status, v2.Error)
	}
	if !v2.Result.FromCache {
		t.Fatal("second identical submission was not served from the engine cache")
	}
	if v2.Result.JobID != v1.Result.JobID || v2.Result.Hash != v1.Result.Hash {
		t.Fatalf("cache hit identity mismatch: %q/%q vs %q/%q", v2.Result.JobID, v2.Result.Hash, v1.Result.JobID, v1.Result.Hash)
	}
	if v2.Result.MonteCarlo.Version.Mean != v1.Result.MonteCarlo.Version.Mean {
		t.Fatalf("cache hit changed the result: %v vs %v", v2.Result.MonteCarlo.Version.Mean, v1.Result.MonteCarlo.Version.Mean)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// readSSE parses events from an SSE stream until the stream closes or a
// "done"/"draining" event arrives.
func readSSE(t *testing.T, resp *http.Response) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				if cur.name == "done" || cur.name == "draining" {
					return events
				}
				cur = sseEvent{}
			}
		}
	}
	return events
}

// TestSSEProgressMonotonic drives a stub job through a controlled
// progress sequence (including an out-of-order report the tracker must
// drop) and checks the streamed events are monotonically non-decreasing
// and end with a terminal "done" event.
func TestSSEProgressMonotonic(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8},
		func(ctx context.Context, job engine.Job, progress func(engine.Progress)) (*engine.Result, error) {
			<-release
			for _, done := range []int{0, 1000, 500, 2500, 5000} { // 500 is out of order on purpose
				progress(engine.Progress{Stage: "replications", Done: done, Total: 5000})
				time.Sleep(5 * time.Millisecond)
			}
			return &engine.Result{Kind: job.Kind, ID: "job-stub", Hash: "stub"}, nil
		})

	_, v := postJob(t, ts, mcJobJSON)
	req, err := http.NewRequest("GET", ts.URL+"/v1/jobs/"+v.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	close(release)

	events := readSSE(t, resp)
	if len(events) == 0 {
		t.Fatal("no SSE events received")
	}
	last := -1
	sawProgress := false
	for _, ev := range events[:len(events)-1] {
		if ev.name != "progress" {
			t.Fatalf("unexpected event %q before done", ev.name)
		}
		sawProgress = true
		var p progressView
		if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
			t.Fatalf("bad progress payload %q: %v", ev.data, err)
		}
		if p.Done < last {
			t.Fatalf("progress went backwards: %d after %d", p.Done, last)
		}
		last = p.Done
	}
	if !sawProgress {
		t.Fatal("stream carried no progress events")
	}
	final := events[len(events)-1]
	if final.name != "done" {
		t.Fatalf("final event = %q, want done", final.name)
	}
	var fv jobView
	if err := json.Unmarshal([]byte(final.data), &fv); err != nil {
		t.Fatalf("bad done payload: %v", err)
	}
	if fv.Status != string(statusDone) {
		t.Fatalf("done event status = %q, want done", fv.Status)
	}
}

// TestSSEOnFinishedJob checks a late subscriber gets the terminal event
// immediately.
func TestSSEOnFinishedJob(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8}, nil)
	_, v := postJob(t, ts, analyticJobJSON)
	pollUntilTerminal(t, ts, v.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp)
	if len(events) == 0 || events[len(events)-1].name != "done" {
		t.Fatalf("late subscriber events = %+v, want a trailing done", events)
	}
}

// TestQueueFull503 fills the worker pool and the queue, then checks the
// next submission is shed with 503 and a Retry-After header.
func TestQueueFull503(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1},
		func(ctx context.Context, job engine.Job, progress func(engine.Progress)) (*engine.Result, error) {
			<-release
			return &engine.Result{Kind: job.Kind}, nil
		})
	defer close(release)

	// First job occupies the worker; wait until it leaves the queue.
	_, running := postJob(t, ts, mcJobJSON)
	waitForStatus(t, ts, running.ID, statusRunning)
	// Second fills the queue.
	resp2, _ := postJob(t, ts, mcJobJSON)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit status = %d, want 202", resp2.StatusCode)
	}
	// Third must shed.
	resp3, _ := postJob(t, ts, mcJobJSON)
	if resp3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit status = %d, want 503", resp3.StatusCode)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Fatal("503 response carries no Retry-After header")
	}
}

// waitForStatus polls until the job reports the wanted status.
func waitForStatus(t *testing.T, ts *httptest.Server, id string, want jobStatus) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		var v jobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding job view: %v", err)
		}
		if v.Status == string(want) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached status %s", id, want)
}

// TestRateLimit429 exhausts a two-token bucket and checks the next
// request is rejected with 429, while queue capacity remains.
func TestRateLimit429(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 64, RatePerSec: 0.001, Burst: 2},
		func(ctx context.Context, job engine.Job, progress func(engine.Progress)) (*engine.Result, error) {
			<-release
			return &engine.Result{Kind: job.Kind}, nil
		})
	defer close(release)

	for i := 0; i < 2; i++ {
		resp, _ := postJob(t, ts, mcJobJSON)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status = %d, want 202", i, resp.StatusCode)
		}
	}
	resp, _ := postJob(t, ts, mcJobJSON)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget submit status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response carries no Retry-After header")
	}
}

// TestCancelRunningJob cancels an in-flight job through its engine
// context.
func TestCancelRunningJob(t *testing.T) {
	t.Parallel()
	started := make(chan struct{})
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8},
		func(ctx context.Context, job engine.Job, progress func(engine.Progress)) (*engine.Result, error) {
			close(started)
			<-ctx.Done()
			return nil, fmt.Errorf("run cancelled: %w", ctx.Err())
		})

	_, v := postJob(t, ts, mcJobJSON)
	<-started
	req, err := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE job: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d, want 202", resp.StatusCode)
	}
	final := pollUntilTerminal(t, ts, v.ID)
	if final.Status != string(statusCancelled) {
		t.Fatalf("final status = %q, want cancelled", final.Status)
	}
}

// TestCancelQueuedJob cancels a job that never left the queue.
func TestCancelQueuedJob(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4},
		func(ctx context.Context, job engine.Job, progress func(engine.Progress)) (*engine.Result, error) {
			<-release
			return &engine.Result{Kind: job.Kind}, nil
		})
	defer close(release)

	_, running := postJob(t, ts, mcJobJSON)
	waitForStatus(t, ts, running.ID, statusRunning)
	_, queued := postJob(t, ts, mcJobJSON)

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE job: %v", err)
	}
	resp.Body.Close()
	final := pollUntilTerminal(t, ts, queued.ID)
	if final.Status != string(statusCancelled) {
		t.Fatalf("queued-job cancel status = %q, want cancelled", final.Status)
	}
}

func TestScenariosEndpoint(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4}, nil)
	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatalf("GET /v1/scenarios: %v", err)
	}
	defer resp.Body.Close()
	var body struct {
		Scenarios []scenarioView `json:"scenarios"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding scenarios: %v", err)
	}
	if len(body.Scenarios) < 4 {
		t.Fatalf("scenario count = %d, want >= 4", len(body.Scenarios))
	}
	found := false
	for _, sc := range body.Scenarios {
		if sc.Name == "million-faults" {
			found = true
			if sc.Faults != 1_000_000 {
				t.Fatalf("million-faults fault count = %d", sc.Faults)
			}
		}
		if sc.Description == "" {
			t.Fatalf("scenario %q has no description", sc.Name)
		}
	}
	if !found {
		t.Fatal("million-faults scenario missing from discovery")
	}
}

func TestHealthAndReady(t *testing.T) {
	t.Parallel()
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4}, nil)
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz after drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("drained /readyz = %d, want 503", resp.StatusCode)
	}
	// healthz stays live for the process supervisor.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz after drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drained /healthz = %d, want 200", resp.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4, MaxReps: 100000}, nil)

	cases := []struct {
		name, body string
	}{
		{"invalid JSON", `{"kind":`},
		{"unknown field", `{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade"},"versions":2,"reps":100,"seed":1,"bogus":true}}`},
		{"invalid spec", `{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade"},"versions":0,"reps":100,"seed":1}}`},
		{"over rep cap", `{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade"},"versions":2,"reps":100000000,"seed":1}}`},
		{"unknown scenario", `{"kind":"montecarlo","montecarlo":{"model":{"scenario":"nope"},"versions":2,"reps":100,"seed":1}}`},
		{"unknown adjudicator", `{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade"},"versions":3,"adjudicator":"sideways","reps":100,"seed":1}}`},
		{"adjudicator pool too small", `{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade"},"versions":2,"adjudicator":"2oo3","reps":100,"seed":1}}`},
		{"arch and adjudicator both set", `{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade"},"versions":3,"arch":"majority","adjudicator":"2oo3","reps":100,"seed":1}}`},
		{"arch spelled as adjudicator kooN", `{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade"},"versions":3,"arch":"2oo3","reps":100,"seed":1}}`},
		{"arch spelled as adjudicator 1oon", `{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade"},"versions":2,"arch":"1oon","reps":100,"seed":1}}`},
		{"negative batch width", `{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade"},"versions":2,"reps":100,"seed":1,"batchWidth":-1}}`},
		{"batch width over cap", `{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade"},"versions":2,"reps":100,"seed":1,"batchWidth":100000}}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatalf("%s: POST: %v", tc.name, err)
		}
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
		if eb.Error == "" {
			t.Fatalf("%s: no error message in body", tc.name)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/j-does-not-exist")
	if err != nil {
		t.Fatalf("GET unknown job: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

// TestAdjudicatedJob runs a 2oo3 majority-threshold job end to end through
// the HTTP API and checks the result view names the pool it adjudicated.
func TestAdjudicatedJob(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4}, nil)

	body := `{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade","scenarioSeed":1},"versions":3,"adjudicator":"2oo3","reps":2000,"workers":1,"seed":1}}`
	resp, v := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	final := pollUntilTerminal(t, ts, v.ID)
	if final.Status != string(statusDone) {
		t.Fatalf("final status = %q (error %q), want done", final.Status, final.Error)
	}
	mc := final.Result.MonteCarlo
	if mc == nil {
		t.Fatal("final view carries no Monte-Carlo result")
	}
	if mc.Versions != 3 || mc.Adjudicator != "2oo3" {
		t.Fatalf("result pool = %d versions, adjudicator %q; want 3 and 2oo3", mc.Versions, mc.Adjudicator)
	}
}

// TestBatchedJob runs a batched-kernel job end to end through the HTTP
// API and checks the result view reports the kernel and its tile width.
func TestBatchedJob(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4}, nil)

	body := `{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade","scenarioSeed":1},"versions":2,"reps":2000,"workers":1,"seed":1,"batchWidth":64}}`
	resp, v := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	final := pollUntilTerminal(t, ts, v.ID)
	if final.Status != string(statusDone) {
		t.Fatalf("final status = %q (error %q), want done", final.Status, final.Error)
	}
	mc := final.Result.MonteCarlo
	if mc == nil {
		t.Fatal("final view carries no Monte-Carlo result")
	}
	if !mc.Batched || mc.BatchWidth != 64 {
		t.Fatalf("result reports batched=%v width=%d, want the batched kernel at width 64", mc.Batched, mc.BatchWidth)
	}
}

// TestListJobs checks the listing carries submissions in order without
// result payloads.
func TestListJobs(t *testing.T) {
	t.Parallel()
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8}, nil)
	_, a := postJob(t, ts, analyticJobJSON)
	pollUntilTerminal(t, ts, a.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var body struct {
		Jobs []jobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding listing: %v", err)
	}
	if len(body.Jobs) != 1 || body.Jobs[0].ID != a.ID {
		t.Fatalf("listing = %+v, want the one submitted job", body.Jobs)
	}
	if body.Jobs[0].Result != nil {
		t.Fatal("listing carries result payloads; want lifecycle fields only")
	}
}

// TestServerMetricsRegistered checks the serving metrics land in the
// configured registry, pre-registered before traffic.
func TestServerMetricsRegistered(t *testing.T) {
	t.Parallel()
	s := New(Config{Workers: 1, QueueDepth: 4})
	snap := s.reg.Snapshot()
	for _, name := range []string{
		"server.rejected_total.queue_full",
		"server.rejected_total.rate_limited",
		"server.rejected_total.draining",
		"server.jobs_total.done",
		"server.jobs_total.failed",
		"server.jobs_total.cancelled",
	} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %q not pre-registered", name)
		}
	}
	for _, name := range []string{"server.queue_depth", "server.jobs_inflight"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("gauge %q not pre-registered", name)
		}
	}
}

// TestUnencodableResultAnswers500: a result view that JSON cannot encode
// (here a NaN estimate) must poll as a 500 carrying the error envelope,
// not as a 200 with an empty body.
func TestUnencodableResultAnswers500(t *testing.T) {
	t.Parallel()
	runStub := func(ctx context.Context, job engine.Job, progress func(engine.Progress)) (*engine.Result, error) {
		nan := montecarlo.RareEventEstimate{Probability: math.NaN()}
		return &engine.Result{Kind: job.Kind, RareEvent: &engine.RareEventResult{ImportanceSampling: nan, Naive: nan}}, nil
	}
	_, ts := newTestServer(t, Config{Workers: 1}, runStub)
	_, sub := postJob(t, ts, analyticJobJSON)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID)
		if err != nil {
			t.Fatalf("GET job: %v", err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("reading job view: %v", err)
		}
		if resp.StatusCode == http.StatusInternalServerError {
			var body struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(raw, &body); err != nil || !strings.Contains(body.Error, "NaN") {
				t.Fatalf("500 body %q (%v), want the error envelope naming the NaN", raw, err)
			}
			return
		}
		var v jobView
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("status %d with body %q: %v", resp.StatusCode, raw, err)
		}
		if v.Status == "done" {
			t.Fatalf("done job with a NaN result answered %d: %s", resp.StatusCode, raw)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never finished")
}
