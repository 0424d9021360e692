package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"diversity/internal/engine"
	"diversity/internal/store"
)

// viewBytes is the API encoding of res: what GET /v1/jobs/{id} and the
// SSE "done" event carry under "result", compacted.
func viewBytes(t *testing.T, res *engine.Result) []byte {
	t.Helper()
	raw, err := json.Marshal(resultViewOf(res))
	if err != nil {
		t.Fatalf("encoding result view: %v", err)
	}
	return raw
}

// normaliseFromCache rewrites a cache hit's view bytes to the
// disposition of the computing run, the one field a hit may change.
func normaliseFromCache(view []byte) []byte {
	return bytes.Replace(view, []byte(`"fromCache":true`), []byte(`"fromCache":false`), 1)
}

// compactResult returns the compacted "result" object of a job view body.
func compactResult(t *testing.T, body []byte) []byte {
	t.Helper()
	var v struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decoding job view %s: %v", body, err)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, v.Result); err != nil {
		t.Fatalf("compacting result %s: %v", v.Result, err)
	}
	return buf.Bytes()
}

// getResult fetches a finished job's result bytes through GET
// /v1/jobs/{id}.
func getResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d, %v", id, resp.StatusCode, err)
	}
	return compactResult(t, body)
}

// sseResult fetches a finished job's result bytes through its SSE
// "done" event.
func sseResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	events := readSSE(t, resp)
	if len(events) == 0 || events[len(events)-1].name != "done" {
		t.Fatalf("job %s events = %+v, want a trailing done", id, events)
	}
	return compactResult(t, []byte(events[len(events)-1].data))
}

// jobResult returns the result the server's job table holds for id.
func jobResult(s *Server, id string) *engine.Result {
	js, _ := s.lookup(id)
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.result
}

func decodeSpec(t *testing.T, spec string) engine.Job {
	t.Helper()
	job, _, err := DecodeJobSpec(strings.NewReader(spec))
	if err != nil {
		t.Fatalf("DecodeJobSpec(%s): %v", spec, err)
	}
	return job
}

// TestResultViewBytesAcrossSources pins that a node which keeps only
// summaries serves the bytes the raw result renders to: for every job
// kind and Monte-Carlo mode, the view of the raw result equals the view
// of its summarised form, of the node's live result and of a cache hit
// (fromCache normalised), and of the result replayed after a store
// close/reopen; the SSE "done" event carries the GET body's result.
func TestResultViewBytesAcrossSources(t *testing.T) {
	const model = `"model":{"scenario":"safety-grade","scenarioSeed":1},"versions":2,"reps":5000,"seed":1`
	specs := map[string]string{
		"buffered dense":  `{"kind":"montecarlo","montecarlo":{` + model + `}}`,
		"buffered sparse": `{"kind":"montecarlo","montecarlo":{` + model + `,"sparse":true}}`,
		"streaming":       `{"kind":"montecarlo","montecarlo":{` + model + `,"streaming":true}}`,
		"rare-event":      `{"kind":"rare-event","rareEvent":{` + model + `}}`,
		"analytic":        analyticJobJSON,
	}
	ctx := context.Background()
	ref := engine.New(engine.Options{DisableCache: true})
	dir := t.TempDir()
	st := openStore(t, dir)
	s1, ts1 := newTestServer(t, Config{Workers: 2, Store: st}, nil)

	want := map[string][]byte{} // submission ID -> raw result's view
	for name, spec := range specs {
		job := decodeSpec(t, spec)
		raw, err := ref.Run(ctx, job)
		if err != nil {
			t.Fatalf("%s: reference run: %v", name, err)
		}
		w := viewBytes(t, raw)
		sum, err := summarized(raw)
		if err != nil {
			t.Fatalf("%s: summarising: %v", name, err)
		}
		if got := viewBytes(t, sum); !bytes.Equal(got, w) {
			t.Errorf("%s: summarised view\n%s\nwant the raw view\n%s", name, got, w)
		}

		_, sub := postJob(t, ts1, spec)
		if v := pollUntilTerminal(t, ts1, sub.ID); v.Status != string(statusDone) {
			t.Fatalf("%s: job ended %q: %s", name, v.Status, v.Error)
		}
		want[sub.ID] = w
		live := jobResult(s1, sub.ID)
		if got := viewBytes(t, live); !bytes.Equal(got, w) {
			t.Errorf("%s: live view\n%s\nwant\n%s", name, got, w)
		}
		body := getResult(t, ts1, sub.ID)
		if !bytes.Equal(body, w) {
			t.Errorf("%s: GET result\n%s\nwant\n%s", name, body, w)
		}
		if got := sseResult(t, ts1, sub.ID); !bytes.Equal(got, body) {
			t.Errorf("%s: SSE done result\n%s\nwant the GET body's\n%s", name, got, body)
		}

		hit, err := s1.eng.Run(ctx, job)
		if err != nil || !hit.FromCache {
			t.Fatalf("%s: engine rerun: fromCache %v, %v", name, hit != nil && hit.FromCache, err)
		}
		if got := normaliseFromCache(viewBytes(t, hit)); !bytes.Equal(got, w) {
			t.Errorf("%s: cache-hit view\n%s\nwant\n%s", name, got, w)
		}
		if mc := hit.MonteCarlo; mc != nil {
			if mc.VersionPFD != nil || mc.SystemPFD != nil || mc.VersionAgg != nil || mc.SystemAgg != nil || mc.VersionSum == nil {
				t.Errorf("%s: the engine cache holds samples, not the summary", name)
			}
			if live.MonteCarlo.VersionPFD != nil || live.MonteCarlo.VersionSum == nil {
				t.Errorf("%s: the job table holds samples, not the summary", name)
			}
		}
		_, again := postJob(t, ts1, spec)
		if v := pollUntilTerminal(t, ts1, again.ID); v.Result == nil || !v.Result.FromCache {
			t.Fatalf("%s: resubmission was not a cache hit", name)
		}
		if got := normaliseFromCache(getResult(t, ts1, again.ID)); !bytes.Equal(got, w) {
			t.Errorf("%s: resubmitted GET result\n%s\nwant\n%s", name, got, w)
		}
	}

	stopServer(t, s1, ts1)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	t.Cleanup(func() { st2.Close() })
	s2, ts2 := newTestServer(t, Config{Workers: 2, Store: st2}, nil)
	for id, w := range want {
		if got := viewBytes(t, jobResult(s2, id)); !bytes.Equal(got, w) {
			t.Errorf("replayed %s: view\n%s\nwant\n%s", id, got, w)
		}
		if got := getResult(t, ts2, id); !bytes.Equal(got, w) {
			t.Errorf("replayed %s: GET result\n%s\nwant\n%s", id, got, w)
		}
	}
}

// TestLegacyRecordReplays: a done record journaled before the node kept
// summaries — a stored result with raw samples and no summaries — still
// replays to the live view's bytes, and the cache it warms holds the
// summary, not the samples.
func TestLegacyRecordReplays(t *testing.T) {
	ctx := context.Background()
	job := decodeSpec(t, mcJobJSON)
	raw, err := engine.New(engine.Options{}).Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := encodeResult(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(legacy, []byte(`"VersionPFD":[`)) || bytes.Contains(legacy, []byte(`Sum"`)) {
		t.Fatalf("record is not in the pre-summary encoding: %.200s", legacy)
	}
	spec, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	st := openStore(t, dir)
	t.Cleanup(func() { st.Close() })
	const id = "j-000001-legacy00"
	if err := st.Put(store.JobRecord{
		ID: id, Seq: 1, EngineID: raw.ID, Kind: string(job.Kind), Spec: spec,
		Status: string(statusDone), Result: legacy,
	}); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, Store: st}, nil)

	w := viewBytes(t, raw)
	if got := getResult(t, ts, id); !bytes.Equal(got, w) {
		t.Errorf("replayed legacy GET result\n%s\nwant the live view\n%s", got, w)
	}
	hit, err := s.eng.Run(ctx, job)
	if err != nil || !hit.FromCache {
		t.Fatalf("rerun after replay: fromCache %v, %v", hit != nil && hit.FromCache, err)
	}
	if hit.MonteCarlo.VersionPFD != nil || hit.MonteCarlo.VersionSum == nil {
		t.Error("replay warmed the cache with the legacy record's samples")
	}
	if got := normaliseFromCache(viewBytes(t, hit)); !bytes.Equal(got, w) {
		t.Errorf("warmed cache-hit view\n%s\nwant\n%s", got, w)
	}
}

// TestBatchedRecordReplays: a done record journaled while the kernel
// width was a job option — its spec carrying batchWidth 64 and its
// Monte-Carlo result "Batched":true,"BatchWidth":64 — still replays and
// renders the result's view, with the two dropped fields ignored.
func TestBatchedRecordReplays(t *testing.T) {
	ctx := context.Background()
	const body = `{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade","scenarioSeed":1},"versions":2,"reps":2000,"seed":1,"batchWidth":64}}`
	job := decodeSpec(t, body)
	raw, err := engine.New(engine.Options{}).Run(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := summarized(raw)
	if err != nil {
		t.Fatal(err)
	}
	result, err := encodeResult(sum)
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.Replace(result, []byte(`"SparseSkips":0,`), []byte(`"SparseSkips":0,"Batched":true,"BatchWidth":64,`), 1)
	if bytes.Equal(old, result) {
		t.Fatalf("stored result has no SparseSkips field to extend: %.300s", result)
	}

	dir := t.TempDir()
	st := openStore(t, dir)
	t.Cleanup(func() { st.Close() })
	const id = "j-000001-batched0"
	if err := st.Put(store.JobRecord{
		ID: id, Seq: 1, EngineID: raw.ID, Kind: string(job.Kind), Spec: json.RawMessage(body),
		Status: string(statusDone), Result: old,
	}); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1, Store: st}, nil)
	if code, v := fetchJob(t, ts, id); code != http.StatusOK || v.Status != string(statusDone) {
		t.Fatalf("replayed record: status %d, job %q, want 200 and done", code, v.Status)
	}
	if got, w := getResult(t, ts, id), viewBytes(t, raw); !bytes.Equal(got, w) {
		t.Errorf("replayed GET result\n%s\nwant the live view\n%s", got, w)
	}
}

// doneRecordLen is the size of the journal record that carried a done
// job's result: the update storeUpdate appends, rebuilt from the
// ledger's materialised record.
func doneRecordLen(t *testing.T, rec store.JobRecord) int {
	t.Helper()
	raw, err := json.Marshal(struct {
		Op     string        `json:"op"`
		Update *store.Update `json:"update"`
	}{"update", &store.Update{ID: rec.ID, Status: rec.Status, Finished: rec.Finished, Result: rec.Result}})
	if err != nil {
		t.Fatal(err)
	}
	return len(raw)
}

// TestEdgePopulationsJournalSummaries: populations at the edges of the
// summary — one replication (standard deviation 0) and PFDs that are all
// zero — summarise, journal with their result rather than falling back
// to a status-only record, and replay to the same view; a default-size
// buffered job's done record stays a few kilobytes.
func TestEdgePopulationsJournalSummaries(t *testing.T) {
	specs := map[string]string{
		"one replication":                      `{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade","scenarioSeed":1},"versions":2,"reps":1,"seed":1}}`,
		"all-zero PFDs":                        `{"kind":"montecarlo","montecarlo":{"model":{"name":"never","faults":[{"p":1e-12,"q":0.5},{"p":1e-12,"q":0.25}]},"versions":2,"reps":3000,"seed":1}}`,
		"20,000 replications commercial-grade": `{"kind":"montecarlo","montecarlo":{"model":{"scenario":"commercial-grade","scenarioSeed":1},"versions":2,"reps":20000,"seed":1}}`,
	}
	dir := t.TempDir()
	st := openStore(t, dir)
	s1, ts1 := newTestServer(t, Config{Workers: 1, Store: st}, nil)
	want := map[string][]byte{}
	names := map[string]string{}
	for name, spec := range specs {
		_, sub := postJob(t, ts1, spec)
		if v := pollUntilTerminal(t, ts1, sub.ID); v.Status != string(statusDone) {
			t.Fatalf("%s: job ended %q: %s", name, v.Status, v.Error)
		}
		res := jobResult(s1, sub.ID)
		if res.MonteCarlo.VersionSum == nil || res.MonteCarlo.SystemSum == nil {
			t.Fatalf("%s: the job table kept an unsummarised result", name)
		}
		if name == "all-zero PFDs" && res.MonteCarlo.VersionSum.Max != 0 {
			t.Fatalf("%s: the model sampled a non-zero PFD (max %v)", name, res.MonteCarlo.VersionSum.Max)
		}
		want[sub.ID], names[sub.ID] = viewBytes(t, res), name
	}
	stopServer(t, s1, ts1) // the workers journal each done record after the status flips
	for _, rec := range st.Jobs() {
		name := names[rec.ID]
		if rec.Status != string(statusDone) || len(rec.Result) == 0 {
			t.Fatalf("%s: journaled status %q with a %d-byte result, want done with its result", name, rec.Status, len(rec.Result))
		}
		n := doneRecordLen(t, rec)
		t.Logf("%s: done record %d B", name, n)
		if n >= 4096 {
			t.Errorf("%s: done record is %d B, want under 4 kB", name, n)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	t.Cleanup(func() { st2.Close() })
	_, ts2 := newTestServer(t, Config{Workers: 1, Store: st2}, nil)
	for id, w := range want {
		if got := getResult(t, ts2, id); !bytes.Equal(got, w) {
			t.Errorf("%s: replayed GET result\n%s\nwant\n%s", names[id], got, w)
		}
	}
}

// TestConcurrentHitsSeeOneView: identical buffered jobs racing through
// the pool — one computes and re-warms the cache with its summary while
// the others may hit either the run's entry or the summarised one — all
// serve the same bytes, and the cache ends up holding the summary.
func TestConcurrentHitsSeeOneView(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 16}, nil)
	ids := make([]string, 8)
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(mcJobJSON))
			if err != nil {
				t.Errorf("POST /v1/jobs: %v", err)
				return
			}
			defer resp.Body.Close()
			var v jobView
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				t.Errorf("decoding submit response: %v", err)
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	var want []byte
	for _, id := range ids {
		if v := pollUntilTerminal(t, ts, id); v.Status != string(statusDone) {
			t.Fatalf("job %s ended %q: %s", id, v.Status, v.Error)
		}
		got := normaliseFromCache(getResult(t, ts, id))
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("job %s view\n%s\nwant\n%s", id, got, want)
		}
		if jobResult(s, id).MonteCarlo.VersionPFD != nil {
			t.Errorf("job %s: the job table holds samples", id)
		}
	}
	hit, err := s.eng.Run(context.Background(), decodeSpec(t, mcJobJSON))
	if err != nil || !hit.FromCache || hit.MonteCarlo.VersionPFD != nil {
		t.Fatalf("cache entry after the race: fromCache %v, samples kept %v, %v", hit != nil && hit.FromCache, hit != nil && hit.MonteCarlo.VersionPFD != nil, err)
	}
}
