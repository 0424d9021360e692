package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"diversity/internal/devsim"
	"diversity/internal/engine"
	"diversity/internal/montecarlo"
	"diversity/internal/randx"
	"diversity/internal/scenario"
	"diversity/internal/server"
	"diversity/internal/store"
	"diversity/internal/system"
	"diversity/internal/telemetry"
)

// layers records the per-layer metrics the workload's own traffic shows:
// self times of the traced rounds' spans, the lifecycle stamps of every
// done view, and registry growth over the window.
func (s *sut) layers(v values, win window, d driven, spans []span) {
	hits, misses := d.delta("engine.cache.hits"), d.delta("engine.cache.misses")
	if hits+misses > 0 {
		v.set("engine.cache_hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses))
	}
	if s.nodes == nil {
		return
	}
	var hit, miss, queue, run, deliver []float64
	eventBytes := 0
	for _, u := range d.units {
		for _, j := range u.jobs {
			if j.err != nil || !win.contains(j.done) {
				continue
			}
			if j.hit {
				hit = append(hit, ms(j.done.Sub(j.posted)))
			} else {
				miss = append(miss, ms(j.done.Sub(j.posted)))
			}
			queue = append(queue, ms(j.started.Sub(j.submitted)))
			run = append(run, ms(j.finished.Sub(j.started)))
			deliver = append(deliver, ms(j.done.Sub(j.finished)))
			eventBytes += j.eventBytes
		}
	}
	v.setQuantile("client.hit_ms_p50", hit, 0.5)
	v.setQuantile("client.miss_ms_p50", miss, 0.5)
	v.setQuantile("server.queue_wait_ms_p50", queue, 0.5)
	v.setQuantile("server.queue_wait_ms_p99", queue, 0.99)
	v.setQuantile("server.run_ms_p50", run, 0.5)
	v.setQuantile("server.deliver_ms_p50", deliver, 0.5)
	if n := len(queue); n > 0 {
		v.set("server.done_event_kb", float64(eventBytes)/1024/float64(n), n)
	}

	var proxy, submit []float64
	for _, sp := range spans {
		switch {
		case sp.Layer == "fabric":
			proxy = append(proxy, float64(sp.SelfNS)/1e6)
		case sp.Layer == "server" && sp.Name == "jobs_submit":
			submit = append(submit, float64(sp.EndNS-sp.StartNS)/1e6)
		}
	}
	v.setQuantile("fabric.proxy_ms_p50", proxy, 0.5)
	v.setQuantile("fabric.proxy_ms_p99", proxy, 0.99)
	v.setQuantile("server.submit_ms_p50", submit, 0.5)
	v.setQuantile("server.submit_ms_p99", submit, 0.99)

	done := d.delta("server.jobs_total.done")
	if done > 0 {
		perJob := func(name string) float64 { return float64(d.delta(name)) / float64(done) }
		v.set("store.appends_per_job", perJob("store.appends_total"), int(done))
		v.set("store.fsyncs_per_job", perJob("store.fsyncs_total"), int(done))
		grown := 0.0
		for _, g := range s.journals {
			grown += g.grown(win)
		}
		v.set("store.kb_per_job", grown/1024/float64(done), int(done))
	}
	v.set("store.compactions", float64(d.delta("store.compactions_total")), 1)
	rejected := d.delta("server.rejected_total.queue_full") + d.delta("server.rejected_total.rate_limited") +
		d.delta("server.rejected_total.draining")
	v.set("server.rejected", float64(rejected), 1)

	if s.coord != nil && done > 0 {
		v.set("fabric.reroutes", float64(d.delta("fabric.node_reroutes_total")), 1)
		share := 0.0
		for i := range s.nodes {
			n := d.after[i]["server.jobs_total.done"] - d.before[i]["server.jobs_total.done"]
			share = max(share, float64(n)/float64(done))
		}
		v.set("fabric.node_share_max", share, len(s.nodes))
	}
}

// probe times each layer's public functions on inputs taken from the
// workload, and runs the service probe, returning its measurements and
// spans. The caller keeps the load's own measurement wherever both exist.
func probe(ctx context.Context, w workload, seed uint64, load values) (values, []span, error) {
	v, spans, err := probeService(ctx, w, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("service probe: %w", err)
	}
	kb := v["store.kb_per_job"].Value
	if m, ok := load["store.kb_per_job"]; ok {
		kb = m.Value
	}
	if err := probeStore(v, w.spec(seed, -1).body, kb); err != nil {
		return nil, nil, fmt.Errorf("store probe: %w", err)
	}
	if err := probeKernel(ctx, w, seed, v); err != nil {
		return nil, nil, fmt.Errorf("kernel probe: %w", err)
	}
	return v, spans, nil
}

// probeService sends eight jobs of the workload's shape — four fresh
// specs, then each of them again — one at a time through a coordinator
// over two nodes, traced. It measures the service layers on workloads
// whose own traffic skips them, and always yields both hits and misses.
func probeService(ctx context.Context, w workload, seed uint64) (values, []span, error) {
	const fresh = 4
	tr := newTracer()
	pw := w
	pw.mode, pw.sweep = viaFabric, 1
	chk, err := newChecker(pw)
	if err != nil {
		return nil, nil, err
	}
	sys, err := setUp(pw, tr, chk)
	if err != nil {
		return nil, nil, err
	}
	defer sys.close()
	pool := poolSeeds(seed)
	sent := 0
	next := func() []jobSpec {
		k := sent % fresh
		sent++
		return []jobSpec{pw.spec(pool[k], k)}
	}
	win := window{start: time.Now(), round: time.Hour, rounds: 1}
	d := drive(ctx, sys, win, []func() []jobSpec{next}, 2*fresh, func(time.Time) bool { return true })
	for _, u := range d.units {
		for _, j := range u.jobs {
			if j.err != nil {
				return nil, nil, j.err
			}
		}
	}
	spans := tr.link()
	v := values{}
	sys.layers(v, win, d, spans)
	return v, spans, nil
}

// storeCalls is how many calls each store probe times.
const storeCalls = 64

// probeStore times Store.Put of a submission-sized record under both
// fsync policies, and Store.Update carrying a result envelope of the
// measured journal bytes per job.
func probeStore(v values, spec []byte, kbPerJob float64) error {
	for _, policy := range []string{store.FsyncAlways, store.FsyncOff} {
		dir, err := os.MkdirTemp("", "perfbench-probe-")
		if err != nil {
			return err
		}
		err = probeStorePolicy(v, dir, policy, spec, kbPerJob)
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
	}
	return nil
}

func probeStorePolicy(v values, dir, policy string, spec []byte, kbPerJob float64) error {
	st, err := store.Open(store.Options{Dir: dir, Fsync: policy})
	if err != nil {
		return err
	}
	defer st.Close()
	timed := func(f func() error) (float64, error) {
		start := time.Now()
		err := f()
		return float64(time.Since(start).Nanoseconds()) / 1e3, err
	}
	var puts, updates []float64
	for i := range storeCalls {
		us, err := timed(func() error {
			return st.Put(store.JobRecord{
				ID: fmt.Sprintf("j-%06d", i), Seq: uint64(i + 1), Kind: string(engine.JobMonteCarlo),
				Spec: spec, Status: "queued", Submitted: time.Now(),
			})
		})
		if err != nil {
			return err
		}
		puts = append(puts, us)
	}
	v.set("store.put_us_p50.fsync_"+policy, median(puts), len(puts))
	if policy != store.FsyncAlways {
		return nil
	}
	envelope := json.RawMessage(`"` + strings.Repeat("x", int(kbPerJob*1024)) + `"`)
	for i := range storeCalls {
		us, err := timed(func() error {
			return st.Update(store.Update{ID: fmt.Sprintf("j-%06d", i), Status: "done", Finished: time.Now(), Result: envelope})
		})
		if err != nil {
			return err
		}
		updates = append(updates, us)
	}
	v.set("store.update_us_p50", median(updates), len(updates))
	return nil
}

// probeTime is how long timePerCall keeps sampling one function.
const probeTime = 150 * time.Millisecond

// sink keeps probed results alive so the compiler cannot drop the calls.
var sink uint64

// timePerCall calls f in batches of at least a millisecond for about
// probeTime, and returns the median nanoseconds per call over the batches
// with the batch count. The first call, untimed, builds lazy state.
func timePerCall(f func()) (float64, int) {
	f()
	batch := 1
	for {
		start := time.Now()
		for range batch {
			f()
		}
		if time.Since(start) >= time.Millisecond || batch >= 1<<20 {
			break
		}
		batch *= 2
	}
	var per []float64
	for deadline := time.Now().Add(probeTime); len(per) < 5 || time.Now().Before(deadline); {
		start := time.Now()
		for range batch {
			f()
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(batch))
	}
	return median(per), len(per)
}

// probeKernel times the engine, Monte-Carlo and kernel sub-layer calls.
// The engine and Monte-Carlo probes run the workload's own job; the
// kernel sub-layer probes run fixed inputs: commercial-grade for the
// batched and bitset kernels, million-faults for the sparse one.
func probeKernel(ctx context.Context, w workload, seed uint64, v values) error {
	sp := w.spec(seed, -1)
	spec := *sp.job.MonteCarlo
	calls := []struct {
		name  string
		scale float64
		f     func() error
	}{
		{"engine.resolve_ms", 1e6, func() error { _, _, err := spec.Model.Resolve(); return err }},
		{"engine.hash_us", 1e3, func() error { _, err := sp.job.Hash(); return err }},
		{"server.decode_us", 1e3, func() error { _, _, err := server.DecodeJobSpec(bytes.NewReader(sp.body)); return err }},
	}
	for _, c := range calls {
		var err error
		ns, n := timePerCall(func() {
			if e := c.f(); e != nil {
				err = e
			}
		})
		if err != nil {
			return err
		}
		v.set(c.name, ns/c.scale, n)
	}

	fs, _, err := spec.Model.Resolve()
	if err != nil {
		return err
	}
	adj, err := engine.ResolveAdjudicator(spec.Arch, spec.Adjudicator, spec.Versions)
	if err != nil {
		return err
	}
	cfg := montecarlo.Config{
		Process: devsim.NewIndependentProcess(fs), Versions: spec.Versions, Adjudicator: adj,
		Reps: spec.Reps, Seed: spec.Seed, Streaming: spec.Streaming, Sparse: spec.Sparse, BatchWidth: spec.BatchWidth,
	}
	if err := probeMonteCarlo(ctx, v, cfg); err != nil {
		return err
	}
	if err := probeEngineOverhead(ctx, v, sp.job, cfg); err != nil {
		return err
	}
	return probeSubLayers(v, seed)
}

// probeRuns is how many times each whole-run probe repeats.
const probeRuns = 3

// probeMonteCarlo times montecarlo.RunContext on a pre-resolved process:
// cost and allocations per replication, parallel efficiency between one
// worker and GOMAXPROCS, shard imbalance, and the summary and Agg.Observe
// costs of a 20 000-replication buffered result.
func probeMonteCarlo(ctx context.Context, v values, cfg montecarlo.Config) error {
	timeRun := func(c montecarlo.Config) (float64, float64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		_, err := montecarlo.RunContext(ctx, c)
		wall := float64(time.Since(start).Nanoseconds())
		runtime.ReadMemStats(&after)
		return wall, float64(after.Mallocs - before.Mallocs), err
	}
	var walls, allocs, singles, imbalance []float64
	for range probeRuns {
		reg := telemetry.NewRegistry()
		c := cfg
		c.Metrics = reg
		wall, mallocs, err := timeRun(c)
		if err != nil {
			return err
		}
		walls = append(walls, wall)
		allocs = append(allocs, mallocs)
		imbalance = append(imbalance, reg.Gauge("montecarlo.shard_imbalance").Value())
		c.Workers, c.Metrics = 1, nil
		single, _, err := timeRun(c)
		if err != nil {
			return err
		}
		singles = append(singles, single)
	}
	reps := float64(cfg.Reps)
	v.set("montecarlo.ns_per_rep", median(walls)/reps, len(walls))
	v.set("montecarlo.allocs_per_rep", median(allocs)/reps, len(allocs))
	v.set("montecarlo.parallel_efficiency", median(singles)/(float64(runtime.GOMAXPROCS(0))*median(walls)), len(walls))
	v.set("montecarlo.shard_imbalance", median(imbalance), len(imbalance))

	buffered := cfg
	buffered.Streaming, buffered.Reps = false, 20_000
	res, err := montecarlo.RunContext(ctx, buffered)
	if err != nil {
		return err
	}
	ns, n := timePerCall(func() {
		if _, err = res.VersionSummary(); err == nil {
			_, err = res.SystemSummary()
		}
	})
	v.set("montecarlo.summary_us", ns/1e3, n)
	ns, n = timePerCall(func() {
		var agg montecarlo.Agg
		for _, x := range res.SystemPFD {
			agg.Observe(x)
		}
		sink += uint64(agg.N())
	})
	v.set("montecarlo.agg_observe_ns", ns/float64(len(res.SystemPFD)), n)
	return err
}

// probeEngineOverhead measures what engine.Run adds to resolving the
// model and running the kernel — validation, hashing, tracing, result
// assembly — as the difference of medians over interleaved runs with the
// cache off. Noise can make it negative on kernel-bound jobs.
func probeEngineOverhead(ctx context.Context, v values, job engine.Job, cfg montecarlo.Config) error {
	eng := engine.New(engine.Options{DisableCache: true})
	spec := job.MonteCarlo
	var whole, parts []float64
	for range probeRuns {
		start := time.Now()
		if _, err := eng.Run(ctx, job); err != nil {
			return err
		}
		whole = append(whole, ms(time.Since(start)))
		start = time.Now()
		fs, _, err := spec.Model.Resolve()
		if err != nil {
			return err
		}
		c := cfg
		c.Process = devsim.NewIndependentProcess(fs)
		if _, err := montecarlo.RunContext(ctx, c); err != nil {
			return err
		}
		parts = append(parts, ms(time.Since(start)))
	}
	v.set("engine.overhead_ms", median(whole)-median(parts), len(whole))
	return nil
}

// probeSubLayers times the kernel's building blocks: batched development
// at width 64, sparse development over a million faults, fused Bernoulli
// draws, and the 1oo2 bitset evaluation.
func probeSubLayers(v values, seed uint64) error {
	cg, err := scenario.CommercialGrade(1)
	if err != nil {
		return err
	}
	proc := devsim.NewIndependentProcess(cg.FaultSet)
	n := cg.FaultSet.N()
	r := randx.NewStream(seed)

	const width = 64
	cols := make([]*devsim.Bitset, width)
	for i := range cols {
		cols[i] = devsim.NewBitset(n)
	}
	scratch := make([]uint64, devsim.BatchScratchLen(width, n))
	ns, calls := timePerCall(func() { proc.DevelopBatch(r, cols, scratch) })
	v.set("devsim.develop_batch_ns_per_rep", ns/width, calls)

	threshold := devsim.BernoulliThreshold(0.15)
	ns, calls = timePerCall(func() { sink ^= r.Hits(threshold, 64) })
	v.set("randx.hits_ns_per_decision", ns/64, calls)

	// Cycle through pre-developed pairs, so the evaluation sees the
	// scenario's spread of fault counts.
	pairs := make([][]*devsim.Bitset, 64)
	for i := range pairs {
		pairs[i] = []*devsim.Bitset{devsim.NewBitset(n), devsim.NewBitset(n)}
		proc.DevelopSparse(r, pairs[i][0])
		proc.DevelopSparse(r, pairs[i][1])
	}
	next := 0
	ns, calls = timePerCall(func() {
		pfd, _ := system.BitsetSystemPFD(cg.FaultSet, system.OneOutOfN{}, pairs[next%len(pairs)])
		sink += uint64(pfd * 1e18)
		next++
	})
	v.set("system.bitset_pfd_ns.1oo2", ns, calls)

	mf, err := scenario.ByName("million-faults", 1)
	if err != nil {
		return err
	}
	sparse := devsim.NewIndependentProcess(mf.FaultSet)
	mask := devsim.NewBitset(mf.FaultSet.N())
	ns, calls = timePerCall(func() { sink += uint64(sparse.DevelopSparse(r, mask)) })
	v.set("devsim.develop_sparse_ns", ns, calls)
	return nil
}
