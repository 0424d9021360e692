package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"diversity/internal/telemetry"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the benchmark starts itself as a child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func readBench(t *testing.T) benchDef {
	t.Helper()
	var def benchDef
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// small shrinks a workload's jobs so a one-second window under the race
// detector still completes many of them.
func small(w workload) workload {
	w.reps /= 25
	return w
}

// TestWorkloadsEmitListedMetrics runs every workload for one second,
// untraced and traced, and checks each run reports exactly the metrics
// BENCHMARK.json lists, with their units, and no failed job; and that in
// the traced run every span's parent resolves and no self time is
// negative.
func TestWorkloadsEmitListedMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv("TMPDIR", t.TempDir())
	def := readBench(t)
	units := map[string]string{}
	for _, m := range def.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range def.PerLayer {
		units[m.Name] = m.Unit
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				spans := filepath.Join(t.TempDir(), "spans.json")
				res, err := runWorkload(context.Background(), small(w), options{
					seed: 7, seconds: 1, trace: traced, spans: spans, setups: 1,
				})
				if err != nil {
					t.Fatalf("trace=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				want := len(def.EndToEnd)
				if traced {
					want = len(def.PerLayer)
				}
				if len(res.Metrics) != want {
					t.Errorf("trace=%v: %d metrics, want %d", traced, len(res.Metrics), want)
				}
				for name, m := range res.Metrics {
					if units[name] != m.Unit {
						t.Errorf("trace=%v: metric %s has unit %q, BENCHMARK.json says %q", traced, name, m.Unit, units[name])
					}
				}
				if traced {
					checkSpans(t, spans)
				}
			}
		})
	}
}

// checkSpans reads a spans file and checks every span's parent resolves —
// client spans are the roots, every other span has a parent — and that
// no self time is negative.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	var doc struct {
		Spans      []span `json:"spans"`
		ProbeSpans []span `json:"probe_spans"`
	}
	if err := readJSON(path, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.ProbeSpans) == 0 {
		t.Error("the service probe recorded no spans")
	}
	for _, spans := range [][]span{doc.Spans, doc.ProbeSpans} {
		ids := map[int]bool{}
		for _, s := range spans {
			ids[s.ID] = true
		}
		for _, s := range spans {
			if root := s.Layer == "client"; root != (s.Parent == 0) || (!root && !ids[s.Parent]) {
				t.Errorf("span %+v: parent does not resolve", s)
			}
			if s.SelfNS < 0 {
				t.Errorf("span %+v: negative self time", s)
			}
		}
	}
}

func TestLinkSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	tr.record("client", "jobs_submit", "t.a", at(0), at(10))
	tr.record("fabric", "jobs_submit", "t.a", at(1), at(9))
	tr.record("server", "jobs_submit", "t.a", at(2), at(5))
	tr.record("server", "jobs_submit", "t.a", at(4), at(7)) // a retry overlapping the first
	tr.record("client", "jobs_submit", "t.b", at(0), at(3))
	want := []struct {
		parent int
		selfMS int64
	}{{0, 2}, {1, 3}, {2, 3}, {2, 3}, {0, 3}}
	for i, s := range tr.link() {
		if s.Parent != want[i].parent || s.SelfNS != want[i].selfMS*1e6 {
			t.Errorf("span %d: parent %d self %dns, want parent %d self %dms", s.ID, s.Parent, s.SelfNS, want[i].parent, want[i].selfMS)
		}
	}
}

func TestRatesCreditOverlap(t *testing.T) {
	t0 := time.Now()
	win := window{start: t0, round: time.Second, rounds: 2}
	units := []unit{
		{start: t0.Add(-500 * time.Millisecond), end: t0.Add(500 * time.Millisecond), jobs: make([]jobRun, 2)},
		{start: t0.Add(500 * time.Millisecond), end: t0.Add(1500 * time.Millisecond), jobs: make([]jobRun, 1)},
	}
	got := win.rates(units)
	if len(got) != 2 || got[0] != 1.5 || got[1] != 0.5 {
		t.Errorf("rates = %v, want [1.5 0.5]", got)
	}
}

// TestGaugeTrackKeepsReadOrder samples a growing gauge from two clients at
// once, as the closed loops do, and checks the samples never step back:
// grown counts a step back as a compaction and adds the journal's size.
func TestGaugeTrackKeepsReadOrder(t *testing.T) {
	var (
		gauge telemetry.Gauge
		track gaugeTrack
		wg    sync.WaitGroup
		stop  = make(chan struct{})
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 1.0; ; v++ {
			select {
			case <-stop:
				return
			default:
				gauge.Set(v)
			}
		}
	}()
	var samplers sync.WaitGroup
	for range clients {
		samplers.Add(1)
		go func() {
			defer samplers.Done()
			for range 20_000 {
				track.add(time.Now(), &gauge)
			}
		}()
	}
	samplers.Wait()
	close(stop)
	wg.Wait()
	for i := 1; i < len(track.val); i++ {
		if track.val[i] < track.val[i-1] {
			t.Fatalf("sample %d reads %v after %v", i, track.val[i], track.val[i-1])
		}
	}
}

// TestCheckerRejectsCorruption checks that a corrupted mean, or a hit
// that differs from its pool spec's first computation, fails.
func TestCheckerRejectsCorruption(t *testing.T) {
	w, _ := lookup("serve-sweep")
	chk, err := newChecker(w)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20_000
	good := func() (population, population) {
		return population{N: n, Mean: chk.version.mean}, population{N: n, Mean: chk.system.mean}
	}
	v, s := good()
	if err := chk.check(3, "job-aaaa", v, s); err != nil {
		t.Fatalf("first computation of a pooled spec: %v", err)
	}
	if err := chk.check(3, "job-aaaa", v, s); err != nil {
		t.Errorf("identical hit: %v", err)
	}
	if err := chk.check(3, "job-bbbb", v, s); err == nil {
		t.Error("hit with another job ID passed")
	}
	s.Mean *= 1.000001
	if err := chk.check(3, "job-aaaa", v, s); err == nil {
		t.Error("hit with another system mean passed")
	}
	v, s = good()
	v.Mean *= 1.5
	if err := chk.check(-1, "job-cccc", v, s); err == nil {
		t.Error("version mean 50% off its closed form passed")
	}
	v, s = good()
	s.Mean = chk.system.mean + 2*chk.system.tolerance(n)
	if err := chk.check(-1, "job-dddd", v, s); err == nil {
		t.Error("system mean twice its tolerance off passed")
	}
}

// TestBenchmarkSchema holds BENCHMARK.json to its format's limits and
// to the workload and metric tables in this package.
func TestBenchmarkSchema(t *testing.T) {
	def := readBench(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]+ starting with a letter or digit", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}

	if n := len(def.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(def.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(def.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if len(def.Command) == 0 || len(def.Paths) == 0 || !strings.HasPrefix(def.Command[len(def.Command)-1], def.Paths[0]+"/") {
		t.Errorf("command %q does not run a file under paths %q", def.Command, def.Paths)
	}
	if def.RunSeconds < 1 || def.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1 to 60", def.RunSeconds)
	}

	var wlNames []string
	for _, w := range def.Workloads {
		checkName("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		wlNames = append(wlNames, w.Name)
	}
	if strings.Join(wlNames, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, package workloads %v", wlNames, workloadNames())
	}

	e2e := map[string]bool{}
	for i, m := range def.EndToEnd {
		checkName("end-to-end metric", m.Name)
		e2e[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want in (0, 0.25]", m.Name, m.Bound)
		}
		if i >= len(endToEnd) || endToEnd[i].name != m.Name || endToEnd[i].unit != m.Unit {
			t.Errorf("end-to-end metric %d is %s (%s) in BENCHMARK.json but not in the package table", i, m.Name, m.Unit)
		}
		checkMetric(t, m.Name, m.Unit, m.Better, unitRE)
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s end-to-end metric")
	}
	if len(def.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the package %d", len(def.EndToEnd), len(endToEnd))
	}
	for i, m := range def.PerLayer {
		checkName("per-layer metric", m.Name)
		checkMetric(t, m.Name, m.Unit, m.Better, unitRE)
		if i >= len(perLayer) || perLayer[i].name != m.Name || perLayer[i].unit != m.Unit {
			t.Errorf("per-layer metric %d is %s (%s) in BENCHMARK.json but not in the package table", i, m.Name, m.Unit)
			continue
		}
		if d := perLayer[i]; !e2e[d.moves] || !slices.Contains(wlNames, d.on) {
			t.Errorf("%s should move %q on %q: no such end-to-end metric or workload", m.Name, d.moves, d.on)
		}
	}
	if len(def.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the package %d", len(def.PerLayer), len(perLayer))
	}
}

func checkMetric(t *testing.T, name, unit, better string, unitRE *regexp.Regexp) {
	t.Helper()
	if !unitRE.MatchString(unit) {
		t.Errorf("%s: unit %q", name, unit)
	}
	if better != "lower" && better != "higher" {
		t.Errorf("%s: better %q, want lower or higher", name, better)
	}
}

func TestCommit(t *testing.T) {
	noGit := func(...string) (string, error) { return "", errors.New("no git") }
	git := func(status string) func(...string) (string, error) {
		return func(args ...string) (string, error) {
			if args[0] == "rev-parse" {
				return "abc123\n", nil
			}
			return status, nil
		}
	}
	stamp := func(modified string) []debug.BuildSetting {
		return []debug.BuildSetting{{Key: "vcs.revision", Value: "def456"}, {Key: "vcs.modified", Value: modified}}
	}
	for _, tc := range []struct {
		name     string
		settings []debug.BuildSetting
		git      func(...string) (string, error)
		want     string
	}{
		{"stamped clean", stamp("false"), noGit, "def456"},
		{"stamped modified", stamp("true"), noGit, "def456-dirty"},
		{"git clean", nil, git(""), "abc123"},
		{"git dirty", nil, git(" M main.go\n"), "abc123-dirty"},
		{"nothing", nil, noGit, ""},
	} {
		if got := commit(tc.settings, tc.git); got != tc.want {
			t.Errorf("%s: commit = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	dir := t.TempDir()
	baseMetrics := func() map[string]metric {
		return map[string]metric{
			"setup_s":         {Value: 0.004, Unit: "s"},
			"latency_ms_p50":  {Value: 100, Unit: "ms"},
			"peak_rss_mb":     {Value: 50, Unit: "MB"},
			"server.rejected": {Value: 0, Unit: "count"},
		}
	}
	write := func(name string, metrics map[string]metric) string {
		path := filepath.Join(dir, name)
		rep := report{Workloads: map[string]result{}}
		if metrics != nil {
			rep.Workloads["mc-batched"] = result{Correct: true, Attempted: 10, Metrics: metrics}
		}
		if err := writeJSON(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	with := func(name string, value float64) map[string]metric {
		m := baseMetrics()
		m[name] = metric{Value: value, Unit: m[name].Unit}
		return m
	}
	without := func(name string) map[string]metric {
		m := baseMetrics()
		delete(m, name)
		return m
	}
	bench := filepath.Join("..", "BENCHMARK.json")
	base := write("base.json", baseMetrics())
	for _, tc := range []struct {
		name    string
		metrics map[string]metric
		code    int
	}{
		{"unchanged", baseMetrics(), 0},
		{"latency within its bound", with("latency_ms_p50", 105), 0},
		{"latency past its bound", with("latency_ms_p50", 140), 1},
		{"faster", with("latency_ms_p50", 80), 0},
		{"set-up tripled within the absolute floor", with("setup_s", 0.012), 0},
		{"set-up past the absolute floor", with("setup_s", 0.1), 1},
		{"workload missing", nil, 1},
		{"end-to-end metric missing", without("peak_rss_mb"), 1},
		{"per-layer metric missing", without("server.rejected"), 0},
	} {
		var out bytes.Buffer
		code := compareReports(bench, base, write(tc.name+".json", tc.metrics), &out, &out)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, code, tc.code, out.String())
		}
		if tc.metrics != nil && !strings.Contains(out.String(), "ratio") {
			t.Errorf("%s: no ratios printed:\n%s", tc.name, out.String())
		}
		if _, ok := tc.metrics["server.rejected"]; ok && !strings.Contains(out.String(), "ratio n/a") {
			t.Errorf("%s: a zero base value needs an n/a ratio:\n%s", tc.name, out.String())
		}
	}
}

// TestAllIsolatesWorkloads runs -workload all and checks that the report
// states every metric's sample count, and that each workload ran in its
// own process: fabric-interactive, which runs after mc-sparse, must not
// inherit mc-sparse's peak RSS of cached million-fault models.
func TestAllIsolatesWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	t.Setenv("TMPDIR", t.TempDir())
	out := filepath.Join(t.TempDir(), "all.json")
	var stdout, stderr bytes.Buffer
	// Children run full-size jobs: under the race detector an mc-batched
	// job takes most of a second, and the window must see some end.
	if code := run(context.Background(), []string{"-workload", "all", "-seconds", "3", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	var rep report
	if err := readJSON(out, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("report has %d workloads, want %d", len(rep.Workloads), len(workloads))
	}
	for wl, res := range rep.Workloads {
		for name, m := range res.Metrics {
			if m.Samples < 1 {
				t.Errorf("%s %s: the report states no sample count", wl, name)
			}
		}
	}
	sparse := rep.Workloads["mc-sparse"].Metrics["peak_rss_mb"].Value
	fabric := rep.Workloads["fabric-interactive"].Metrics["peak_rss_mb"].Value
	if !(fabric > 0 && fabric < sparse/2) {
		t.Errorf("peak RSS: fabric-interactive %v MB after mc-sparse %v MB; want its own, smaller peak", fabric, sparse)
	}
}

func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "mc-batched", "-trace", "2"},
		{"-workload", "mc-batched", "-seconds", "0"},
		{"-compare", "only-one.json"},
	} {
		var out, errOut bytes.Buffer
		if code := run(context.Background(), args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q; want a failure and no result", args, code, out.String())
		}
	}
}

func TestResultLineHasNoSampleCounts(t *testing.T) {
	rep := report{Workloads: map[string]result{"w": {Correct: true, Attempted: 1, Metrics: map[string]metric{
		"setup_s": {Value: 0.5, Unit: "s", Samples: 5},
	}}}}
	line, err := json.Marshal(rep.summary())
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}`
	if string(line) != want {
		t.Errorf("result line %s, want %s", line, want)
	}
}
