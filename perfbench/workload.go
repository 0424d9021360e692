package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"diversity/internal/engine"
)

// mode says how the clients reach the engine.
type mode int

const (
	inEngine  mode = iota // engine.Run in-process: no HTTP, journal or queue
	oneNode               // HTTP to one serve node
	viaFabric             // HTTP to a coordinator over two serve nodes
)

// workload is one traffic mix. BENCHMARK.json records why each exists.
type workload struct {
	name      string
	mode      mode
	scenario  string
	reps      int
	streaming bool
	sparse    bool
	batch     int
	sweep     int     // jobs a client submits before it waits for them
	repeat    float64 // share of specs a seeded coin sends to the shared pool
	cacheSize int     // engine result-cache entries; 0 keeps the default of 128
}

var workloads = []workload{
	{name: "mc-batched", mode: inEngine, scenario: "commercial-grade", reps: 500_000, streaming: true, batch: 64, sweep: 1},
	// Every cached million-fault result pins its ~32 MB model, so the
	// default 128 entries would hold ~4 GB. Eight entries keep the cache's
	// footprint visible in peak_rss_mb at a size a shared host affords.
	{name: "mc-sparse", mode: inEngine, scenario: "million-faults", reps: 20_000, streaming: true, sparse: true, sweep: 1, cacheSize: 8},
	// API-default specs — no mode fields, so buffered, dense and
	// unbatched — as docs/API.md and the CI examples submit them.
	{name: "serve-sweep", mode: oneNode, scenario: "safety-grade", reps: 20_000, sweep: 8, repeat: 0.5},
	// Three jobs in four repeat, so the median job is a cache hit and
	// latency_ms_p50 times the service path. With half repeating, the
	// median would sit on the cliff between the hit and miss latencies and
	// jump between them with the hit share.
	{name: "fabric-interactive", mode: viaFabric, scenario: "safety-grade", reps: 20_000, streaming: true, batch: 64, sweep: 1, repeat: 0.75},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

const (
	// clients is the number of closed-loop client goroutines, each with
	// at most one connection: the core count of the reference host.
	clients = 2
	// poolSize is the number of repeatable specs on repeating workloads.
	poolSize = 8
	// rounds splits the measured window; throughput is their median.
	rounds = 5
	// setupRuns is how many child processes time setup_s.
	setupRuns = 21
)

// jobSpec is one job a client sends.
type jobSpec struct {
	job  engine.Job
	body []byte // the job as an API submission
	pool int    // index into the repeat pool, or -1 for a fresh seed
}

// spec builds the workload's job for one seed. The model is fixed, so
// seeds change the sampled streams but not the work or its closed forms.
func (w workload) spec(seed uint64, pool int) jobSpec {
	job := engine.NewMonteCarloJob(engine.MonteCarloSpec{
		Model:      engine.ModelSpec{Scenario: w.scenario, ScenarioSeed: 1},
		Versions:   2,
		Reps:       w.reps,
		Seed:       seed,
		Streaming:  w.streaming,
		Sparse:     w.sparse,
		BatchWidth: w.batch,
	})
	body, err := json.Marshal(job)
	if err != nil {
		panic(err) // a MonteCarloSpec always encodes
	}
	return jobSpec{job: job, body: body, pool: pool}
}

// poolSeeds returns the job seeds of the shared repeat pool.
func poolSeeds(seed uint64) []uint64 {
	r := rand.New(rand.NewPCG(seed, 0))
	pool := make([]uint64, poolSize)
	for i := range pool {
		pool[i] = r.Uint64()
	}
	return pool
}

// dealers returns each client's spec source. Every job seed and every
// hit/miss choice comes from the workload seed; a client's sequence does
// not depend on the other client's progress.
func dealers(w workload, seed uint64) []func() []jobSpec {
	pool := poolSeeds(seed)
	out := make([]func() []jobSpec, clients)
	for c := range out {
		r := rand.New(rand.NewPCG(seed, uint64(c+1)))
		out[c] = func() []jobSpec {
			specs := make([]jobSpec, w.sweep)
			for i := range specs {
				if r.Float64() < w.repeat {
					k := r.IntN(poolSize)
					specs[i] = w.spec(pool[k], k)
				} else {
					specs[i] = w.spec(r.Uint64(), -1)
				}
			}
			return specs
		}
	}
	return out
}

// window is the measured interval, split into equal rounds.
type window struct {
	start  time.Time
	round  time.Duration
	rounds int
}

func (w window) end() time.Time { return w.start.Add(time.Duration(w.rounds) * w.round) }

func (w window) contains(t time.Time) bool { return !t.Before(w.start) && t.Before(w.end()) }

// roundOf returns the round holding t, or -1 outside the window.
func (w window) roundOf(t time.Time) int {
	if !w.contains(t) {
		return -1
	}
	return int(t.Sub(w.start) / w.round)
}

// rates returns each round's completed jobs per second. A unit's jobs are
// credited to the rounds its run time overlaps, in proportion, so a
// round's rate does not jump by a whole unit at its edges.
func (w window) rates(units []unit) []float64 {
	rates := make([]float64, w.rounds)
	for _, u := range units {
		d := u.end.Sub(u.start)
		if d <= 0 {
			continue
		}
		for r := range rates {
			lo := w.start.Add(time.Duration(r) * w.round)
			hi := lo.Add(w.round)
			overlap := minTime(hi, u.end).Sub(maxTime(lo, u.start))
			if overlap > 0 {
				rates[r] += float64(u.completed()) * float64(overlap) / float64(d)
			}
		}
	}
	for r := range rates {
		rates[r] /= w.round.Seconds()
	}
	return rates
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// unit is what a client waits for: one job, or a sweep of jobs.
type unit struct {
	start, end time.Time
	jobs       []jobRun
}

// completed counts the unit's jobs that finished and passed their checks.
func (u unit) completed() int {
	n := 0
	for _, j := range u.jobs {
		if j.err == nil {
			n++
		}
	}
	return n
}

// jobRun is one job's outcome as its client saw it.
type jobRun struct {
	posted, done time.Time
	hit          bool
	err          error
	// Service jobs only: the done view's lifecycle stamps and the size of
	// the done event's data.
	submitted, started, finished time.Time
	eventBytes                   int
}

// target is the system under test as a client sees it.
type target interface {
	// run sends one unit of work for a client and waits for all of its
	// jobs. Requests of a traced unit carry request IDs under tracedPrefix.
	run(ctx context.Context, client, seq int, specs []jobSpec, traced bool) unit
}

// driven is the outcome of one load phase.
type driven struct {
	units []unit
	// before and after are every registry's counters at the window edges.
	before, after []map[string]int64
}

// drive runs one closed loop per spec source until the window ends, or
// until each has sent limit units when limit > 0. traced decides, from a
// unit's start time, whether its requests are traced.
func drive(ctx context.Context, sys *sut, win window, sources []func() []jobSpec, limit int, traced func(time.Time) bool) driven {
	var (
		mu    sync.Mutex
		units []unit
		wg    sync.WaitGroup
	)
	for c, next := range sources {
		wg.Add(1)
		go func(c int, next func() []jobSpec) {
			defer wg.Done()
			for i := 0; (limit == 0 || i < limit) && time.Now().Before(win.end()) && ctx.Err() == nil; i++ {
				u := sys.target.run(ctx, c, i, next(), traced(time.Now()))
				sys.sampleJournals(u.end)
				mu.Lock()
				units = append(units, u)
				mu.Unlock()
			}
		}(c, next)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	var d driven
	sleepUntil(win.start, finished)
	d.before = sys.counters()
	sleepUntil(win.end(), finished)
	d.after = sys.counters()
	<-finished
	d.units = units
	return d
}

// sleepUntil waits until t or until done closes.
func sleepUntil(t time.Time, done <-chan struct{}) {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-done:
	}
}

// options configure one workload run.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	spans   string // file the traced run's spans are written to; "" skips
	setups  int    // child processes that time setup_s; 0 skips them
}

// runWorkload sets the workload up, warms it for a fifth of the window
// (at most 3 s), measures the window in rounds, and reports the
// end-to-end metrics — or, traced, the per-layer metrics.
func runWorkload(ctx context.Context, w workload, opt options) (result, error) {
	v := values{}
	if !opt.trace && opt.setups > 0 {
		times, err := timeSetups(ctx, w, opt.setups)
		if err != nil {
			return result{}, err
		}
		v.set("setup_s", median(times), len(times))
	}
	chk, err := newChecker(w)
	if err != nil {
		return result{}, err
	}
	var tr *tracer
	if opt.trace {
		tr = newTracer()
	}
	sys, err := setUp(w, tr, chk)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	measured := time.Duration(opt.seconds * float64(time.Second))
	warm := min(3*time.Second, measured/5)
	win := window{start: time.Now().Add(warm), round: measured / rounds, rounds: rounds}
	// A traced run alternates untraced and traced rounds, so tracing cost
	// is measured against the same load at nearly the same time.
	traced := func(t time.Time) bool { return opt.trace && win.roundOf(t)%2 == 1 }
	d := drive(ctx, sys, win, dealers(w, opt.seed), 0, traced)
	rss, rssErr := peakRSSMB()
	var spans []span
	if opt.trace {
		spans = tr.link()
		sys.layers(v, win, d, spans)
	}
	sys.close()

	res := result{Correct: true}
	var latencies []float64
	for _, u := range d.units {
		for _, j := range u.jobs {
			res.Attempted++
			if j.err != nil {
				res.Failed++
				res.Correct = false
				if res.Failed <= 5 {
					fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, j.err)
				}
			}
		}
		// A traced run times latency on its untraced rounds only.
		if win.contains(u.end) && u.completed() == len(u.jobs) && !traced(u.start) {
			latencies = append(latencies, ms(u.end.Sub(u.start)))
		}
	}
	if res.Attempted == 0 {
		return result{}, fmt.Errorf("no job was sent in %v", measured)
	}
	rates := win.rates(d.units)
	fmt.Fprintf(os.Stderr, "perfbench: %-18s round rates %.4g jobs/s\n", w.name, rates)
	var defs []metricDef
	if opt.trace {
		var untracedRates, tracedRates []float64
		for r, rate := range rates {
			if r%2 == 1 {
				tracedRates = append(tracedRates, rate)
			} else {
				untracedRates = append(untracedRates, rate)
			}
		}
		base := median(untracedRates)
		v.set("client.jobs_per_s", base, len(untracedRates))
		v.setQuantile("client.latency_ms_p90", latencies, 0.9)
		v.set("trace.overhead_pct", 100*(base-median(tracedRates))/base, len(rates))
		probed, probeSpans, err := probe(ctx, w, opt.seed, v)
		if err != nil {
			return result{}, fmt.Errorf("probes: %w", err)
		}
		v.fill(probed)
		defs = perLayer
		if opt.spans != "" {
			doc := map[string]any{"workload": w.name, "spans": spans, "probe_spans": probeSpans}
			if err := writeJSON(opt.spans, doc); err != nil {
				return result{}, err
			}
		}
	} else {
		if rssErr != nil {
			return result{}, rssErr
		}
		v.setQuantile("latency_ms_p50", latencies, 0.5)
		v.set("peak_rss_mb", rss, 1)
		defs = endToEnd
	}
	res.Metrics, err = v.only(defs)
	if err != nil {
		return result{}, err
	}
	return res, nil
}

// timeSetups starts n child processes that set the workload up and
// returns, for each, the seconds from process start to its "ready" line.
func timeSetups(ctx context.Context, w workload, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	times := make([]float64, 0, n)
	for range n {
		cmd := exec.CommandContext(ctx, exe, "-setup-only", "-workload", w.name)
		cmd.Env = append(os.Environ(), childEnv+"=1")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, readErr := readLine(stdout)
		elapsed := time.Since(start)
		waitErr := cmd.Wait()
		switch {
		case readErr != nil:
			return nil, readErr
		case waitErr != nil:
			return nil, fmt.Errorf("set-up child: %w", waitErr)
		case line != "ready":
			return nil, fmt.Errorf("set-up child printed %q, want \"ready\"", line)
		}
		times = append(times, elapsed.Seconds())
	}
	return times, nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, err := strconv.ParseFloat(fields[0], 64)
				if err == nil {
					return kb / 1024, nil
				}
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// counters snapshots every registry of the system under test.
func (s *sut) counters() []map[string]int64 {
	out := make([]map[string]int64, len(s.regs))
	for i, r := range s.regs {
		out[i] = r.Snapshot().Counters
	}
	return out
}

// delta sums a counter's growth across registries.
func (d driven) delta(name string) int64 {
	var n int64
	for i := range d.after {
		n += d.after[i][name] - d.before[i][name]
	}
	return n
}
