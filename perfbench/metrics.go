package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one metric and its unit. For a per-layer metric, moves
// and on record the end-to-end metric it should move and the workload
// where it moves it; the schema test holds both to BENCHMARK.json.
type metricDef struct {
	name, unit string
	moves, on  string
}

// endToEnd are the metrics a user of the system sees, reported by the
// untraced run of every workload. What a "latency" is depends on the
// workload: an engine.Run call for mc-*, a sweep of 8 jobs from first
// submission to last done event for serve-sweep, and one job from
// submission to its done event for fabric-interactive.
//
// Only metrics that repeat from run to run are end-to-end. Throughput and
// tail latency are not: a closed loop's throughput is the inverse of its
// mean latency, so it moves with every stall the host causes, as the tail
// does, while the median does not. They are per-layer metrics of the
// client instead.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "latency_ms_p50", unit: "ms"},
	{name: "peak_rss_mb", unit: "MB"},
}

// perLayer are the metrics of single layers, reported by the traced run
// of every workload. A layer the workload does not pass through is
// measured by the service probe instead (see layers.go).
var perLayer = []metricDef{
	{"client.jobs_per_s", "1/s", "latency_ms_p50", "mc-batched"},
	{"client.latency_ms_p90", "ms", "latency_ms_p50", "serve-sweep"},
	{"client.hit_ms_p50", "ms", "latency_ms_p50", "fabric-interactive"},
	{"client.miss_ms_p50", "ms", "latency_ms_p50", "serve-sweep"},
	{"fabric.proxy_ms_p50", "ms", "latency_ms_p50", "fabric-interactive"},
	{"fabric.proxy_ms_p99", "ms", "latency_ms_p50", "fabric-interactive"},
	{"fabric.node_share_max", "ratio", "latency_ms_p50", "fabric-interactive"},
	{"fabric.reroutes", "count", "latency_ms_p50", "fabric-interactive"},
	{"server.submit_ms_p50", "ms", "latency_ms_p50", "fabric-interactive"},
	{"server.submit_ms_p99", "ms", "latency_ms_p50", "serve-sweep"},
	{"server.queue_wait_ms_p50", "ms", "latency_ms_p50", "serve-sweep"},
	{"server.queue_wait_ms_p99", "ms", "latency_ms_p50", "serve-sweep"},
	{"server.run_ms_p50", "ms", "latency_ms_p50", "serve-sweep"},
	{"server.deliver_ms_p50", "ms", "latency_ms_p50", "fabric-interactive"},
	{"server.done_event_kb", "kB", "latency_ms_p50", "fabric-interactive"},
	{"server.decode_us", "us", "latency_ms_p50", "fabric-interactive"},
	{"server.rejected", "count", "latency_ms_p50", "serve-sweep"},
	{"store.appends_per_job", "1/job", "latency_ms_p50", "serve-sweep"},
	{"store.fsyncs_per_job", "1/job", "latency_ms_p50", "serve-sweep"},
	{"store.kb_per_job", "kB", "latency_ms_p50", "serve-sweep"},
	{"store.compactions", "count", "latency_ms_p50", "serve-sweep"},
	{"store.put_us_p50.fsync_always", "us", "latency_ms_p50", "fabric-interactive"},
	{"store.put_us_p50.fsync_off", "us", "latency_ms_p50", "fabric-interactive"},
	{"store.update_us_p50", "us", "latency_ms_p50", "serve-sweep"},
	{"engine.resolve_ms", "ms", "latency_ms_p50", "mc-sparse"},
	{"engine.hash_us", "us", "latency_ms_p50", "fabric-interactive"},
	{"engine.overhead_ms", "ms", "latency_ms_p50", "mc-sparse"},
	{"engine.cache_hit_ratio", "ratio", "latency_ms_p50", "serve-sweep"},
	{"montecarlo.ns_per_rep", "ns", "latency_ms_p50", "mc-batched"},
	{"montecarlo.allocs_per_rep", "count", "latency_ms_p50", "serve-sweep"},
	{"montecarlo.parallel_efficiency", "ratio", "latency_ms_p50", "mc-batched"},
	{"montecarlo.shard_imbalance", "ratio", "latency_ms_p50", "mc-batched"},
	{"montecarlo.agg_observe_ns", "ns", "latency_ms_p50", "mc-batched"},
	{"montecarlo.summary_us", "us", "latency_ms_p50", "serve-sweep"},
	{"devsim.develop_batch_ns_per_rep", "ns", "latency_ms_p50", "mc-batched"},
	{"devsim.develop_sparse_ns", "ns", "latency_ms_p50", "mc-sparse"},
	{"randx.hits_ns_per_decision", "ns", "latency_ms_p50", "mc-batched"},
	{"system.bitset_pfd_ns.1oo2", "ns", "latency_ms_p50", "mc-batched"},
	{"trace.overhead_pct", "%", "latency_ms_p50", "fabric-interactive"},
}

// values collects measurements by metric name, with the sample count
// each was taken over.
type values map[string]metric

// set records a measurement under a metric defined in endToEnd or
// perLayer.
func (v values) set(name string, value float64, samples int) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				v[name] = metric{Value: value, Unit: d.unit, Samples: samples}
				return
			}
		}
	}
	panic("perfbench: undefined metric " + name)
}

// setQuantile records the q-quantile of xs, when there are any.
func (v values) setQuantile(name string, xs []float64, q float64) {
	if len(xs) > 0 {
		v.set(name, quantile(xs, q), len(xs))
	}
}

// fill copies every metric of o that v lacks.
func (v values) fill(o values) {
	for name, m := range o {
		if _, ok := v[name]; !ok {
			v[name] = m
		}
	}
}

// only returns the subset of v named by defs, failing when one is
// missing.
func (v values) only(defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		m, ok := v[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = m
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("no measurement for %v", missing)
	}
	return out, nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
