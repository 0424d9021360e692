package fabric

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"diversity/internal/server"
	"diversity/internal/telemetry"
)

func TestRouteKey(t *testing.T) {
	cases := []struct{ in, want string }{
		{"job-0123456789abcdef", "01234567"},
		{"job-ffff0000ffff0000", "ffff0000"},
		{"0123456789abcdef", "01234567"},
		{"short", "short"},
	}
	for _, c := range cases {
		if got := routeKey(c.in); got != c.want {
			t.Errorf("routeKey(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestKeyFromSubmissionID(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"j-000001-0123abcd", "0123abcd", true},
		{"j-000042-ffffffff", "ffffffff", true},
		{"j-000001-0123ABCD", "", false}, // uppercase is not a node ID
		{"j-000001-0123abc", "", false},  // 7 hex digits
		{"job-0123456789abcdef", "", false},
		{"x-000001-0123abcd", "", false},
		{"garbage", "", false},
	}
	for _, c := range cases {
		got, ok := keyFromSubmissionID(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("keyFromSubmissionID(%q) = (%q, %v), want (%q, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
}

func newTestCoordinator(t *testing.T, n int) *Coordinator {
	t.Helper()
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = "http://127.0.0.1:1"
	}
	c, err := New(Config{Nodes: nodes, Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

func TestRankDeterministicAndStable(t *testing.T) {
	c := newTestCoordinator(t, 5)
	keys := []string{"0123abcd", "deadbeef", "cafef00d", "00000000", "ffffffff"}
	for _, key := range keys {
		a, b := c.rank(key), c.rank(key)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("rank(%q) not deterministic: %v vs %v", key, a, b)
			}
		}
		seen := make(map[int]bool)
		for _, idx := range a {
			if idx < 0 || idx >= 5 || seen[idx] {
				t.Fatalf("rank(%q) = %v is not a permutation", key, a)
			}
			seen[idx] = true
		}
	}
	// Rendezvous property: removing one node only moves the keys that
	// node owned. Simulate a 4-node fabric that dropped node4 and check
	// that keys whose 5-node home was not node4 keep their home.
	small := newTestCoordinator(t, 4)
	for _, key := range keys {
		home5 := c.rank(key)[0]
		if home5 == 4 {
			continue
		}
		if home4 := small.rank(key)[0]; home4 != home5 {
			t.Errorf("key %q moved from node%d to node%d when an unrelated node left", key, home5, home4)
		}
	}
}

// TestSubmitFailover: a submission goes to the first node in rendezvous
// order whose up flag is set, counts a reroute when that node is not the
// key's home, and is refused with 503 when every node is down.
func TestSubmitFailover(t *testing.T) {
	const spec = `{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade","scenarioSeed":7},"versions":2,"reps":1000,"seed":42}}`
	_, engineID, err := server.DecodeJobSpec(strings.NewReader(spec))
	if err != nil {
		t.Fatalf("DecodeJobSpec: %v", err)
	}
	hits := make([]atomic.Int32, 3)
	urls := make([]string, len(hits))
	for i := range urls {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[i].Add(1)
			w.WriteHeader(http.StatusAccepted)
		}))
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	reg := telemetry.NewRegistry()
	c, err := New(Config{Nodes: urls, Registry: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	submit := func() int {
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(spec)))
		return rec.Code
	}
	reroutes := func() int64 { return reg.Snapshot().Counters["fabric.node_reroutes_total"] }
	order := c.rank(routeKey(engineID))

	for _, n := range c.nodes {
		n.up.Store(true)
	}
	if code := submit(); code != http.StatusAccepted || hits[order[0]].Load() != 1 || reroutes() != 0 {
		t.Fatalf("all up: status %d, home hits %d, reroutes %d; want 202 on home node%d, no reroute",
			code, hits[order[0]].Load(), reroutes(), order[0])
	}
	c.nodes[order[0]].up.Store(false)
	if code := submit(); code != http.StatusAccepted || hits[order[1]].Load() != 1 || reroutes() != 1 {
		t.Fatalf("home down: status %d, next hits %d, reroutes %d; want 202 on node%d, one reroute",
			code, hits[order[1]].Load(), reroutes(), order[1])
	}
	for _, n := range c.nodes {
		n.up.Store(false)
	}
	if code := submit(); code != http.StatusServiceUnavailable {
		t.Fatalf("all down: status %d, want 503", code)
	}
	if total := hits[0].Load() + hits[1].Load() + hits[2].Load(); total != 2 {
		t.Errorf("nodes saw %d submissions, want 2", total)
	}
}

func TestCandidatesSweepInRendezvousOrder(t *testing.T) {
	c := newTestCoordinator(t, 3)
	order := c.rank("0123abcd")
	got := c.candidates("j-000001-0123abcd")
	if len(got) != len(order) {
		t.Fatalf("candidates %v does not sweep all nodes", got)
	}
	for i := range order {
		if got[i] != order[i] {
			t.Fatalf("candidates = %v, want rendezvous order %v", got, order)
		}
	}
	// An ID without an embedded key still sweeps every node.
	if got := c.candidates("not-a-submission-id"); len(got) != 3 {
		t.Fatalf("candidates for unparseable ID = %v, want all 3 nodes", got)
	}
}

// TestRouteKeyMatchesNodeSubmissionID: the coordinator routes a
// submission on the key of the engine ID it computes, and every later
// request on the key the node embeds in its submission ID. The two must
// agree when coordinator and node run on different core counts and the
// spec leaves workers at 0 (all cores). Not parallel: it changes
// GOMAXPROCS.
func TestRouteKeyMatchesNodeSubmissionID(t *testing.T) {
	const spec = `{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade","scenarioSeed":7},"versions":2,"reps":5000,"seed":42}}`
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	_, engineID, err := server.DecodeJobSpec(strings.NewReader(spec))
	if err != nil {
		t.Fatalf("DecodeJobSpec: %v", err)
	}

	runtime.GOMAXPROCS(4)
	node := startNode(t)
	resp, err := http.Post(node.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var v struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, %v", resp.StatusCode, err)
	}
	key, ok := keyFromSubmissionID(v.ID)
	if !ok || key != routeKey(engineID) {
		t.Errorf("node submission ID %q carries key %q, coordinator routes on %q", v.ID, key, routeKey(engineID))
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New with no nodes succeeded")
	}
	if _, err := New(Config{Nodes: []string{"not a url"}}); err == nil {
		t.Error("New with a bad node URL succeeded")
	}
	if _, err := New(Config{Nodes: []string{"ftp://host:1"}}); err == nil {
		t.Error("New with a non-http scheme succeeded")
	}
}

func TestMetricsPreRegistered(t *testing.T) {
	reg := telemetry.NewRegistry()
	if _, err := New(Config{Nodes: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}, Registry: reg}); err != nil {
		t.Fatalf("New: %v", err)
	}
	snap := reg.Snapshot()
	for _, route := range fabricRoutes {
		name := "fabric.request_duration_seconds." + route.name + "." + route.status
		if _, ok := snap.Histograms[name]; !ok {
			t.Errorf("histogram %s not pre-registered", name)
		}
	}
	for _, name := range []string{"fabric.node_up.node0", "fabric.node_up.node1", "fabric.sse_streams_inflight"} {
		if _, ok := snap.Gauges[name]; !ok {
			t.Errorf("gauge %s not pre-registered", name)
		}
	}
	for _, reason := range rejectReasons {
		if _, ok := snap.Counters["fabric.rejected_total."+reason]; !ok {
			t.Errorf("counter fabric.rejected_total.%s not pre-registered", reason)
		}
	}
	if _, ok := snap.Counters["fabric.node_reroutes_total"]; !ok {
		t.Error("counter fabric.node_reroutes_total not pre-registered")
	}
}

func TestReadyzLifecycle(t *testing.T) {
	c := newTestCoordinator(t, 1)
	h := c.Handler()

	get := func(path string) (*httptest.ResponseRecorder, map[string]any) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		var body map[string]any
		json.Unmarshal(rec.Body.Bytes(), &body)
		return rec, body
	}

	if rec, _ := get("/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", rec.Code)
	}
	if rec, body := get("/readyz"); rec.Code != http.StatusServiceUnavailable || body["status"] != "unavailable" {
		t.Fatalf("readyz before Start = %d %v, want 503 unavailable", rec.Code, body)
	}

	// Started with its (unreachable) node down: still unready.
	c.Start()
	defer c.Shutdown(context.Background())
	if rec, _ := get("/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with node down = %d, want 503", rec.Code)
	}
	c.nodes[0].up.Store(true)
	if rec, body := get("/readyz"); rec.Code != http.StatusOK || body["nodesUp"] != float64(1) {
		t.Fatalf("readyz with node up = %d %v, want 200 nodesUp=1", rec.Code, body)
	}
}

func TestSubmitNoNodeRejected(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, err := New(Config{Nodes: []string{"http://127.0.0.1:1"}, Registry: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec := `{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade","scenarioSeed":7},"versions":2,"reps":1000,"seed":42}}`
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(spec)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit with all nodes down = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("no_node rejection carries no Retry-After")
	}
	if got := reg.Snapshot().Counters["fabric.rejected_total.no_node"]; got != 1 {
		t.Errorf("fabric.rejected_total.no_node = %d, want 1", got)
	}

	// An invalid spec fails validation at the coordinator, before
	// routing: 400, not 503.
	rec = httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"kind":"bogus"}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid spec through coordinator = %d, want 400", rec.Code)
	}
}

func TestDrainingRejectsSubmissions(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, err := New(Config{Nodes: []string{"http://127.0.0.1:1"}, Registry: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	spec := `{"kind":"montecarlo","montecarlo":{"model":{"scenario":"safety-grade","scenarioSeed":7},"versions":2,"reps":1000,"seed":42}}`
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(spec)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", rec.Code)
	}
	if got := reg.Snapshot().Counters["fabric.rejected_total.draining"]; got != 1 {
		t.Errorf("fabric.rejected_total.draining = %d, want 1", got)
	}
}
