package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diversity/internal/engine"
	"diversity/internal/store"
	"diversity/internal/telemetry"
)

// stallSyncs makes every journal fsync of st wait until step lets it
// through or release lets every fsync through; stalled is signalled as
// an fsync begins waiting. release is idempotent and runs at cleanup,
// before the store closes.
func stallSyncs(t *testing.T, st *store.Store) (stalled <-chan struct{}, step, release func()) {
	t.Helper()
	ch := make(chan struct{}, 1)
	steps, gate := make(chan struct{}), make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	st.SetSyncHook(func(f *os.File) error {
		select {
		case ch <- struct{}{}:
		default:
		}
		select {
		case <-steps:
		case <-gate:
		}
		return f.Sync()
	})
	return ch, func() { steps <- struct{}{} }, release
}

// gatedRunner returns a runner that counts its runs and signals started
// as each begins, then blocks until open is called. open is idempotent
// and runs at cleanup.
func gatedRunner(t *testing.T, runs *atomic.Int64, started chan<- struct{}) (run func(context.Context, engine.Job, func(engine.Progress)) (*engine.Result, error), open func()) {
	gate := make(chan struct{})
	open = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(open)
	return func(ctx context.Context, job engine.Job, progress func(engine.Progress)) (*engine.Result, error) {
		runs.Add(1)
		started <- struct{}{}
		<-gate
		return &engine.Result{Kind: job.Kind, ID: "job-stub", Hash: "stub"}, nil
	}, open
}

// openEvents opens a job's SSE stream and parses it in the background;
// the returned channel yields the stream's events once it ends.
func openEvents(t *testing.T, ts *httptest.Server, id string) <-chan []sseEvent {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	out := make(chan []sseEvent, 1)
	go func() { out <- readSSE(t, resp) }()
	return out
}

// doneView returns the job view an SSE stream ended with.
func doneView(t *testing.T, events []sseEvent) jobView {
	t.Helper()
	if len(events) == 0 || events[len(events)-1].name != "done" {
		t.Fatalf("SSE events = %+v, want a trailing done", events)
	}
	var v jobView
	if err := json.Unmarshal([]byte(events[len(events)-1].data), &v); err != nil {
		t.Fatalf("bad done payload: %v", err)
	}
	return v
}

// wait receives from ch or fails the test after a few seconds.
func wait[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// TestTerminalViewWaitsForFsync: a job's terminal status appears only
// once its terminal record is durable. While that fsync is stalled, GET
// and the list read running and an SSE subscriber gets no done event;
// once it lands, the transition is already counted and recorded, so
// store_appends_total reads 2 × server_jobs_total at the first terminal
// read.
func TestTerminalViewWaitsForFsync(t *testing.T) {
	reg := telemetry.NewRegistry()
	st, err := store.Open(store.Options{Dir: t.TempDir(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	var runs atomic.Int64
	started := make(chan struct{}, 1)
	run, open := gatedRunner(t, &runs, started)
	s, ts := newTestServer(t, Config{Workers: 1, Store: st, Registry: reg}, run)

	_, v := postJob(t, ts, mcJobJSON)
	wait(t, started, "the job to start")
	// Arm the stall only now: the submission's fsync has landed, and the
	// job cannot finish before the stall is in place.
	stalled, _, release := stallSyncs(t, st)
	events := openEvents(t, ts, v.ID)
	open()
	wait(t, stalled, "the terminal fsync")

	if code, got := fetchJob(t, ts, v.ID); code != http.StatusOK || got.Status != string(statusRunning) {
		t.Fatalf("GET during the stalled terminal fsync: %d %q, want 200 running", code, got.Status)
	}
	if jobs := s.list(); len(jobs) != 1 || s.viewOf(jobs[0], false).Status != string(statusRunning) {
		t.Fatal("the list shows the job terminal during its stalled terminal fsync")
	}
	select {
	case evs := <-events:
		t.Fatalf("the SSE stream ended during the stalled terminal fsync: %+v", evs)
	case <-time.After(50 * time.Millisecond):
	}

	release()
	fv := doneView(t, wait(t, events, "the SSE done event"))
	if fv.Status != string(statusDone) {
		t.Fatalf("SSE done event status = %q, want done", fv.Status)
	}
	if done, appends := reg.Counter("server.jobs_total.done").Value(), reg.Counter("store.appends_total").Value(); done != 1 || appends != 2*done {
		t.Fatalf("at the first terminal read: jobs_total.done = %d, appends = %d; want 1 and 2", done, appends)
	}
	if code, got := fetchJob(t, ts, v.ID); code != http.StatusOK || got.Status != string(statusDone) {
		t.Fatalf("GET after the terminal fsync: %d %q, want 200 done", code, got.Status)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("the job ran %d times, want 1", n)
	}
}

// TestCancelQueuedWaitsForFsync: a DELETE of a queued job answers
// cancelled only once the cancellation's record is durable, and the job
// never runs, though the idle worker meets it while the cancellation is
// claimed but not yet durable. The DELETE is sent while the submission's
// own fsync is stalled, with the worker already holding the job.
func TestCancelQueuedWaitsForFsync(t *testing.T) {
	st := openStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	var runs atomic.Int64
	s, ts := newTestServer(t, Config{Workers: 1, Store: st},
		func(ctx context.Context, job engine.Job, progress func(engine.Progress)) (*engine.Result, error) {
			runs.Add(1)
			return &engine.Result{Kind: job.Kind}, nil
		})
	stalled, step, release := stallSyncs(t, st)
	accepted := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(mcJobJSON))
		if err != nil {
			accepted <- 0
			return
		}
		resp.Body.Close()
		accepted <- resp.StatusCode
	}()
	wait(t, stalled, "the submission's fsync")
	jobs := s.list()
	if len(jobs) != 1 {
		t.Fatalf("%d jobs listed during the submission, want 1", len(jobs))
	}
	js := jobs[0]
	for deadline := time.Now().Add(5 * time.Second); len(s.queue) > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}

	answered := make(chan jobView, 1)
	go func() {
		req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+js.id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			answered <- jobView{Error: err.Error()}
			return
		}
		defer resp.Body.Close()
		var v jobView
		json.NewDecoder(resp.Body).Decode(&v)
		answered <- v
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		js.mu.Lock()
		claimed := js.settling
		js.mu.Unlock()
		if claimed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the DELETE never claimed the job")
		}
	}
	step() // the submission turns durable and the worker gets the job
	if code := wait(t, accepted, "the submission's answer"); code != http.StatusAccepted {
		t.Fatalf("submit answered %d, want 202", code)
	}
	wait(t, stalled, "the cancellation's fsync")
	select {
	case v := <-answered:
		t.Fatalf("DELETE answered %q during the stalled fsync", v.Status)
	case <-time.After(20 * time.Millisecond):
	}
	if _, v := fetchJob(t, ts, js.id); v.Status != string(statusQueued) {
		t.Fatalf("GET during the stalled cancellation: %q, want queued", v.Status)
	}
	if n := runs.Load(); n != 0 {
		t.Fatalf("the job ran %d times while its cancellation was claimed", n)
	}

	release()
	if v := wait(t, answered, "the DELETE answer"); v.Status != string(statusCancelled) {
		t.Fatalf("DELETE answered %q (%s), want cancelled", v.Status, v.Error)
	}
	stopServer(t, s, ts)
	if n := runs.Load(); n != 0 {
		t.Fatalf("the cancelled job ran %d times", n)
	}
}

// TestFailedTerminalFsyncPublishes: when the terminal record's fsync
// fails, the store has failed for good, but the job's outcome is still
// published so that GET and SSE do not hang; the next submission
// answers 500.
func TestFailedTerminalFsyncPublishes(t *testing.T) {
	st := openStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	var runs atomic.Int64
	started := make(chan struct{}, 1)
	run, open := gatedRunner(t, &runs, started)
	_, ts := newTestServer(t, Config{Workers: 1, Store: st}, run)

	_, v := postJob(t, ts, mcJobJSON)
	wait(t, started, "the job to start")
	st.SetSyncHook(func(*os.File) error { return errors.New("injected fsync failure") })
	events := openEvents(t, ts, v.ID)
	open()

	if fv := doneView(t, wait(t, events, "the SSE done event")); fv.Status != string(statusDone) {
		t.Fatalf("SSE done event status = %q, want done", fv.Status)
	}
	if code, got := fetchJob(t, ts, v.ID); code != http.StatusOK || got.Status != string(statusDone) {
		t.Fatalf("GET after the failed terminal fsync: %d %q, want 200 done", code, got.Status)
	}
	if resp, _ := postJob(t, ts, mcJobJSON); resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("submit after the failed fsync answered %d, want 500", resp.StatusCode)
	}
}
