package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"diversity/internal/engine"
	"diversity/internal/store"
	"diversity/internal/telemetry"
)

// openStore opens a ledger in dir with test-friendly defaults.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	return st
}

// stopServer drains s and closes its test listener mid-test, so a
// second server can be brought up against the same store directory.
func stopServer(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("draining first server: %v", err)
	}
	ts.Close()
}

func fetchJob(t *testing.T, ts *httptest.Server, id string) (int, jobView) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	var v jobView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decoding job view: %v", err)
		}
	}
	return resp.StatusCode, v
}

// TestRestartRecoversFinishedJobs is the durability contract at the
// package level: finished results survive a restart under their
// original submission IDs, list order is preserved, the engine cache is
// warmed from replayed results, and submission numbering continues past
// the replayed sequence.
func TestRestartRecoversFinishedJobs(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s1, ts1 := newTestServer(t, Config{Workers: 2, Store: st}, nil)

	_, a := postJob(t, ts1, analyticJobJSON)
	_, m := postJob(t, ts1, mcJobJSON)
	va := pollUntilTerminal(t, ts1, a.ID)
	vm := pollUntilTerminal(t, ts1, m.ID)
	if va.Status != "done" || vm.Status != "done" {
		t.Fatalf("pre-restart jobs: %q / %q", va.Status, vm.Status)
	}
	stopServer(t, s1, ts1)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	t.Cleanup(func() { st2.Close() })
	_, ts2 := newTestServer(t, Config{Workers: 2, Store: st2}, nil)

	// Original IDs answer with the full result.
	code, ra := fetchJob(t, ts2, a.ID)
	if code != http.StatusOK || ra.Status != "done" || ra.Result == nil {
		t.Fatalf("replayed analytic job: code %d status %q result %v", code, ra.Status, ra.Result)
	}
	if ra.Result.Analytic == nil || ra.Result.JobID != va.Result.JobID {
		t.Fatalf("replayed analytic result = %+v, want payload with jobId %s", ra.Result, va.Result.JobID)
	}
	if ra.Result.ModelFaults == 0 {
		t.Fatal("replayed result lost the resolved model fault count")
	}
	code, rm := fetchJob(t, ts2, m.ID)
	if code != http.StatusOK || rm.Status != "done" || rm.Result == nil || rm.Result.MonteCarlo == nil {
		t.Fatalf("replayed montecarlo job: code %d status %q", code, rm.Status)
	}
	if rm.Result.MonteCarlo.Version.Mean != vm.Result.MonteCarlo.Version.Mean {
		t.Fatal("replayed montecarlo summary differs from the pre-restart one")
	}

	// Listing preserves submission order across the restart.
	resp, err := http.Get(ts2.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Jobs []jobView `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 2 || listing.Jobs[0].ID != a.ID || listing.Jobs[1].ID != m.ID {
		t.Fatalf("replayed listing = %+v, want [%s %s]", listing.Jobs, a.ID, m.ID)
	}

	// A pre-restart spec resubmitted is a warmed-cache hit with the same
	// stable job ID, and its fresh submission ID continues the sequence.
	_, re := postJob(t, ts2, analyticJobJSON)
	if !strings.HasPrefix(re.ID, "j-000003-") {
		t.Fatalf("post-restart submission ID %q does not continue the replayed sequence", re.ID)
	}
	rv := pollUntilTerminal(t, ts2, re.ID)
	if rv.Status != "done" || rv.Result == nil {
		t.Fatalf("post-restart resubmission: %q", rv.Status)
	}
	if !rv.Result.FromCache {
		t.Fatal("resubmitted pre-restart spec was recomputed instead of hitting the warmed cache")
	}
	if rv.Result.JobID != va.Result.JobID {
		t.Fatalf("stable job ID changed across restart: %q vs %q", rv.Result.JobID, va.Result.JobID)
	}
}

// TestRestartMarksInterruptedJobsFailed: jobs that were queued or
// running when the process died surface as failed with the restart
// reason after replay.
func TestRestartMarksInterruptedJobsFailed(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	block := make(chan struct{})
	runStub := func(ctx context.Context, job engine.Job, progress func(engine.Progress)) (*engine.Result, error) {
		<-block
		return &engine.Result{Kind: job.Kind}, nil
	}
	_, ts1 := newTestServer(t, Config{Workers: 1, Store: st}, runStub)

	_, running := postJob(t, ts1, mcJobJSON)
	_, queued := postJob(t, ts1, analyticJobJSON)
	waitForStatus(t, ts1, running.ID, statusRunning)

	// Simulate the crash: the journal stops taking transitions mid-run.
	// Everything after this point is the doomed process unwinding.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	close(block)

	st2 := openStore(t, dir)
	t.Cleanup(func() { st2.Close() })
	_, ts2 := newTestServer(t, Config{Workers: 1, Store: st2}, runStub)

	for _, id := range []string{running.ID, queued.ID} {
		code, v := fetchJob(t, ts2, id)
		if code != http.StatusOK || v.Status != "failed" {
			t.Fatalf("interrupted job %s: code %d status %q", id, code, v.Status)
		}
		if !strings.Contains(v.Error, "restart") {
			t.Fatalf("interrupted job %s error = %q, want a restart reason", id, v.Error)
		}
		if v.Finished == nil {
			t.Fatalf("interrupted job %s has no finished timestamp", id)
		}
	}

	// The re-mark itself was journaled: a third open replays failed
	// states without re-deciding.
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	st3 := openStore(t, dir)
	defer st3.Close()
	for _, rec := range st3.Jobs() {
		if rec.Status != "failed" || !strings.Contains(rec.Error, "restart") {
			t.Fatalf("journaled re-mark missing: %+v", rec)
		}
	}
}

// TestRetentionAcrossRestarts pins the retention contract, live and over
// three restarts: every eviction is journaled, a lowered cap evicts at
// replay, a raised cap brings no evicted job back, and retained done jobs
// keep their started timestamps. The live node journals two records per
// job, the submission (which carries the eviction it causes) and the
// terminal update.
func TestRetentionAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	st, err := store.Open(store.Options{Dir: dir, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	runStub := func(ctx context.Context, job engine.Job, progress func(engine.Progress)) (*engine.Result, error) {
		return &engine.Result{Kind: job.Kind}, nil
	}
	s1, ts1 := newTestServer(t, Config{Workers: 1, RetainJobs: 3, Store: st, Registry: reg}, runStub)
	var ids []string
	for i := 0; i < 4; i++ {
		_, v := postJob(t, ts1, mcJobJSON)
		pollUntilTerminal(t, ts1, v.ID)
		ids = append(ids, v.ID)
	}
	if code, _ := fetchJob(t, ts1, ids[0]); code != http.StatusNotFound {
		t.Fatalf("oldest job still served after eviction: %d", code)
	}
	stopServer(t, s1, ts1)
	var terminal int64
	for _, status := range []jobStatus{statusDone, statusFailed, statusCancelled} {
		terminal += reg.Counter("server.jobs_total." + string(status)).Value()
	}
	if got := reg.Counter("store.appends_total").Value(); terminal != 4 || got != 2*terminal {
		t.Fatalf("%d terminal jobs journaled %d records, want 4 jobs of 2 records each", terminal, got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The submission that pushed ids[0] out journaled its eviction.
	st = openStore(t, dir)
	var kept []string
	for _, rec := range st.Jobs() {
		kept = append(kept, rec.ID)
	}
	if !slices.Equal(kept, ids[1:]) {
		t.Fatalf("the journal holds %v, want %v", kept, ids[1:])
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	for _, restart := range []struct {
		retain int
		gone   int // ids[:gone] answer 404
	}{{3, 1}, {2, 2}, {100, 2}} {
		st := openStore(t, dir)
		s, ts := newTestServer(t, Config{Workers: 1, RetainJobs: restart.retain, Store: st}, runStub)
		for i, id := range ids {
			code, v := fetchJob(t, ts, id)
			if i < restart.gone {
				if code != http.StatusNotFound {
					t.Fatalf("restart with -retain-jobs %d: evicted job %s answers %d, want 404", restart.retain, id, code)
				}
			} else if code != http.StatusOK || v.Status != "done" || v.Started == nil {
				t.Fatalf("restart with -retain-jobs %d: retained job %s answers %d, status %q, started %v", restart.retain, id, code, v.Status, v.Started)
			}
		}
		stopServer(t, s, ts)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLegacyRunningRecordReplaysInterrupted: in a journal written while
// a job's start had a record of its own, a job whose last record is that
// running update replays failed with the restart reason, its started
// timestamp kept.
func TestLegacyRunningRecordReplaysInterrupted(t *testing.T) {
	st := openStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	const id = "j-000001-aaaaaaaa"
	started := time.Date(2026, 8, 8, 12, 0, 1, 0, time.UTC)
	if err := st.Put(store.JobRecord{
		ID: id, Seq: 1, Kind: "analytic", Spec: json.RawMessage(analyticJobJSON),
		Status: string(statusQueued), Submitted: started.Add(-time.Second),
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Update(store.Update{ID: id, Status: string(statusRunning), Started: started}); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, Store: st}, nil)
	code, v := fetchJob(t, ts, id)
	if code != http.StatusOK || v.Status != "failed" || !strings.Contains(v.Error, "restart") {
		t.Fatalf("replayed running job: code %d, status %q, error %q; want failed with the restart reason", code, v.Status, v.Error)
	}
	if v.Started == nil || !v.Started.Equal(started) {
		t.Fatalf("replayed running job started %v, want %v", v.Started, started)
	}
}

// TestReplaySharesModel: replayed results and a new job over the same
// scenario carry one fault set, resolved through the engine's model
// cache, and the replayed views keep their model fault count.
func TestReplaySharesModel(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	s1, ts1 := newTestServer(t, Config{Workers: 2, Store: st}, nil)
	_, a := postJob(t, ts1, analyticJobJSON)
	_, m := postJob(t, ts1, mcJobJSON)
	before := map[string]jobView{a.ID: pollUntilTerminal(t, ts1, a.ID), m.ID: pollUntilTerminal(t, ts1, m.ID)}
	stopServer(t, s1, ts1)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	t.Cleanup(func() { st2.Close() })
	s2, ts2 := newTestServer(t, Config{Workers: 2, Store: st2}, nil)
	for id, v := range before {
		if _, got := fetchJob(t, ts2, id); got.Result == nil || got.Result.ModelFaults != v.Result.ModelFaults || got.Result.ModelFaults == 0 {
			t.Fatalf("replayed job %s modelFaults changed across restart (before %+v)", id, v.Result)
		}
	}
	_, fresh := postJob(t, ts2, strings.Replace(mcJobJSON, `"seed":1`, `"seed":2`, 1))
	if v := pollUntilTerminal(t, ts2, fresh.ID); v.Status != "done" || v.Result.FromCache {
		t.Fatalf("post-restart job: status %q, result %+v", v.Status, v.Result)
	}
	s2.mu.Lock()
	defer s2.mu.Unlock()
	shared := s2.jobs[fresh.ID].result.FaultSet
	if shared == nil {
		t.Fatal("post-restart result has no fault set")
	}
	for id := range before {
		if got := s2.jobs[id].result.FaultSet; got != shared {
			t.Errorf("replayed job %s fault set %p, want the shared %p", id, got, shared)
		}
	}
}

// TestFailedSubmitFsyncAnswers500: when the fsync that would make a
// submission durable fails, the client is answered 500 without an ID,
// and the job, already queued when its fsync ran, never runs, is never
// listed and never reaches done.
func TestFailedSubmitFsyncAnswers500(t *testing.T) {
	st := openStore(t, t.TempDir())
	t.Cleanup(func() { st.Close() })
	var runs atomic.Int64
	runStub := func(ctx context.Context, job engine.Job, progress func(engine.Progress)) (*engine.Result, error) {
		runs.Add(1)
		return &engine.Result{Kind: job.Kind}, nil
	}
	s, ts := newTestServer(t, Config{Workers: 1, Store: st}, runStub)
	// Fail the submission's fsync only once the idle worker has taken
	// the job off the queue, so the worker meets it before the outcome.
	st.SetSyncHook(func(*os.File) error {
		deadline := time.Now().Add(5 * time.Second)
		for len(s.queue) > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond)
		return errors.New("injected fsync failure")
	})

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(mcJobJSON))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding the error body: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("submit over a failing fsync answered %d, want 500", resp.StatusCode)
	}
	if _, ok := body["id"]; ok || resp.Header.Get("Location") != "" {
		t.Fatalf("the 500 names a job: body %v, Location %q", body, resp.Header.Get("Location"))
	}

	stopServer(t, s, ts)
	if n := runs.Load(); n != 0 {
		t.Fatalf("the unacknowledged job ran %d times", n)
	}
	if n := s.reg.Counter("server.jobs_total.done").Value(); n != 0 {
		t.Fatalf("server.jobs_total.done = %d, want 0", n)
	}
	if jobs := s.list(); len(jobs) != 0 {
		t.Fatalf("the ledger lists %d jobs after the failed submission, want 0", len(jobs))
	}
}

// TestQueueFullJournalsNothing: a submission refused for a full queue
// answers 503 before anything reaches the journal.
func TestQueueFullJournalsNothing(t *testing.T) {
	reg := telemetry.NewRegistry()
	st, err := store.Open(store.Options{Dir: t.TempDir(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	release := make(chan struct{})
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Store: st, Registry: reg},
		func(ctx context.Context, job engine.Job, progress func(engine.Progress)) (*engine.Result, error) {
			<-release
			return &engine.Result{Kind: job.Kind}, nil
		})
	defer close(release)

	_, running := postJob(t, ts, mcJobJSON)
	waitForStatus(t, ts, running.ID, statusRunning)
	if resp, _ := postJob(t, ts, mcJobJSON); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit status = %d, want 202", resp.StatusCode)
	}
	// Two submissions.
	appends := reg.Counter("store.appends_total")
	deadline := time.Now().Add(5 * time.Second)
	for appends.Value() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	before := appends.Value()
	if resp, _ := postJob(t, ts, mcJobJSON); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit status = %d, want 503", resp.StatusCode)
	}
	if got := appends.Value(); got != before {
		t.Fatalf("the 503 journaled %d records, want none", got-before)
	}
}
