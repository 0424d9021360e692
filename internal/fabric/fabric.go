// Package fabric is the distribution half of the multi-node job fabric:
// an HTTP coordinator that exposes the exact docs/API.md surface of a
// single serve node and shards every request across N nodes by
// rendezvous-hashing the stable spec-hash job ID. Identical specs always
// land on the same node, so the node-local engine LRU cache and durable
// ledger keep their end-to-end observability (fromCache, stable jobId)
// through the proxy — by contract, a client cannot tell a coordinator
// from a node except by throughput.
//
// The coordinator holds no job state of its own: queue, backpressure,
// durability and SSE fan-out all live on the nodes, and their 503/429 +
// Retry-After answers pass through verbatim. What the fabric adds is a
// health-checked node registry (per-node probe loop, up/down gauges),
// failover — jobs whose home node is down route to the next node in
// rendezvous order, counted in fabric.node_reroutes_total — and restart
// recovery: an SSE stream whose node dies mid-run is re-polled until the
// restarted node surfaces the job's terminal view, which carries the
// contractual "restart" failure reason from the durability contract
// (docs/API.md).
package fabric

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diversity/internal/telemetry"
)

// Config parameterises a Coordinator. Nodes is the only required field.
type Config struct {
	// Nodes lists the serve-node base URLs (e.g. "http://10.0.0.1:8080")
	// the coordinator shards over. Order is identity: node i is named
	// "node<i>" in metrics, logs and flight-recorder events, and the
	// rendezvous ranking hashes that stable name, so restarts and
	// coordinator replacements with the same -nodes list route
	// identically.
	Nodes []string
	// ProbeInterval is the per-node health-probe cadence; <= 0 selects
	// 1s. Each node is probed on its own loop (GET /healthz), so one
	// hung node cannot delay the others' state.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe; <= 0 selects 1s.
	ProbeTimeout time.Duration
	// ProxyTimeout bounds one proxied non-streaming upstream request
	// (submit, poll, cancel, list, scenarios); <= 0 selects 30s. SSE
	// streams are bounded by the client connection instead.
	ProxyTimeout time.Duration
	// RecoveryInterval is the poll cadence of the SSE restart-recovery
	// loop: after an upstream stream dies short of its done event, the
	// job view is re-fetched at this cadence until a terminal state
	// surfaces; <= 0 selects 1s.
	RecoveryInterval time.Duration
	// Registry receives the fabric.* metrics; nil creates a private
	// registry.
	Registry *telemetry.Registry
	// Logger, when non-nil, receives structured request and node
	// state-change lines.
	Logger *slog.Logger
}

// node is one registered serve node: its stable name, base URL and
// probed liveness.
type node struct {
	name string // "node<i>", stable across restarts for a fixed -nodes order
	base string // scheme://host:port, no trailing slash
	up   atomic.Bool
}

// Coordinator routes the docs/API.md surface across N serve nodes.
// Construct with New, mount with Register, start the probe loops with
// Start, and drain with Shutdown.
type Coordinator struct {
	cfg   Config
	reg   *telemetry.Registry
	log   *slog.Logger
	nodes []*node

	// proxy performs upstream requests; it has no client-level timeout
	// (SSE streams are long-lived) — non-streaming calls bound
	// themselves with ProxyTimeout contexts.
	proxy *http.Client
	// probe is the health-check client, bounded by ProbeTimeout.
	probe *http.Client

	sse atomic.Int64 // live SSE streams, mirrored to the inflight gauge

	mu       sync.Mutex
	started  bool
	draining bool
	drainCh  chan struct{}
	stop     context.CancelFunc
	wg       sync.WaitGroup
}

// fabricRoutes lists every instrumented route with its success status.
// New pre-registers one request-duration histogram per pair — the same
// zero-series guarantee internal/server gives — so a first scrape
// already exports the full steady-state series set; error-status series
// appear on first use.
var fabricRoutes = []struct{ name, status string }{
	{"healthz", "200"},
	{"readyz", "200"},
	{"scenarios", "200"},
	{"jobs_submit", "202"},
	{"jobs_list", "200"},
	{"jobs_get", "200"},
	{"jobs_cancel", "202"},
	{"jobs_events", "200"},
}

// rejectReasons are the fabric-level rejection counters: no_node when no
// healthy node exists to take a submission, node_unavailable when a
// job's home node is down and no peer holds it, draining while the
// coordinator itself is shutting down.
var rejectReasons = []string{"no_node", "node_unavailable", "draining"}

// New validates the node list and returns an unstarted coordinator: the
// handlers answer (readyz reports 503) but no probe loop runs until
// Start, and every node starts down until its first probe. All fabric.*
// metrics are pre-registered here so the first scrape carries the whole
// series set, zeros included.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("fabric: at least one node is required")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.ProxyTimeout <= 0 {
		cfg.ProxyTimeout = 30 * time.Second
	}
	if cfg.RecoveryInterval <= 0 {
		cfg.RecoveryInterval = time.Second
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c := &Coordinator{
		cfg:     cfg,
		reg:     reg,
		log:     cfg.Logger,
		proxy:   &http.Client{},
		probe:   &http.Client{Timeout: cfg.ProbeTimeout},
		drainCh: make(chan struct{}),
	}
	for i, raw := range cfg.Nodes {
		base := strings.TrimRight(raw, "/")
		u, err := url.Parse(base)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("fabric: node %d: %q is not an http(s) base URL", i, raw)
		}
		c.nodes = append(c.nodes, &node{name: fmt.Sprintf("node%d", i), base: base})
	}
	// Pre-register every fabric series so zeros are scrapeable before
	// the first request — per-route success histograms, per-node up/down
	// gauges, the reroute counter, the SSE inflight gauge and both
	// rejection reasons.
	for _, route := range fabricRoutes {
		reg.Histogram("fabric.request_duration_seconds."+route.name+"."+route.status, telemetry.DurationBuckets)
	}
	for _, n := range c.nodes {
		reg.Gauge("fabric.node_up." + n.name).Set(0)
	}
	reg.Counter("fabric.node_reroutes_total")
	reg.Gauge("fabric.sse_streams_inflight").Set(0)
	for _, reason := range rejectReasons {
		reg.Counter("fabric.rejected_total." + reason)
	}
	return c, nil
}

// Start probes every node once synchronously (so a coordinator in front
// of healthy nodes is ready the moment Start returns) and launches the
// per-node probe loops. It is a no-op when already started.
func (c *Coordinator) Start() {
	c.mu.Lock()
	if c.started || c.draining {
		c.mu.Unlock()
		return
	}
	c.started = true
	ctx, cancel := context.WithCancel(context.Background())
	c.stop = cancel
	c.mu.Unlock()

	var first sync.WaitGroup
	for _, n := range c.nodes {
		first.Add(1)
		go func(n *node) {
			defer first.Done()
			c.setUp(n, c.probeOnce(n))
		}(n)
	}
	first.Wait()
	for _, n := range c.nodes {
		c.wg.Add(1)
		go c.probeLoop(ctx, n)
	}
}

// probeLoop re-probes one node until shutdown.
func (c *Coordinator) probeLoop(ctx context.Context, n *node) {
	defer c.wg.Done()
	ticker := time.NewTicker(c.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			c.setUp(n, c.probeOnce(n))
		}
	}
}

// probeOnce reports whether the node answers its liveness probe. The
// probe targets /healthz, not /readyz: a draining node still serves
// reads for the jobs it holds, and its submission 503s pass through as
// backpressure — only a dead process is routed around.
func (c *Coordinator) probeOnce(n *node) bool {
	resp, err := c.probe.Get(n.base + "/healthz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// setUp records a node's probed state, updating the gauge and logging
// transitions.
func (c *Coordinator) setUp(n *node, up bool) {
	if n.up.Swap(up) == up {
		return
	}
	v := 0.0
	if up {
		v = 1.0
	}
	c.reg.Gauge("fabric.node_up." + n.name).Set(v)
	kind := "fabric.node_down"
	if up {
		kind = "fabric.node_up"
	}
	c.reg.Event(kind, "", map[string]string{"node": n.name, "base": n.base})
	if c.log != nil {
		c.log.Info("node state changed", "node", n.name, "base", n.base, "up", up)
	}
}

// markDown immediately demotes a node a proxied request could not reach,
// so failover does not wait out a probe interval. The probe loop
// promotes it again when it answers.
func (c *Coordinator) markDown(idx int) {
	c.setUp(c.nodes[idx], false)
}

// upCount returns the number of nodes currently probed up.
func (c *Coordinator) upCount() int {
	count := 0
	for _, n := range c.nodes {
		if n.up.Load() {
			count++
		}
	}
	return count
}

// ready reports whether the coordinator can route new work: started,
// not draining, and at least one node up.
func (c *Coordinator) ready() bool {
	c.mu.Lock()
	ok := c.started && !c.draining
	c.mu.Unlock()
	return ok && c.upCount() > 0
}

func (c *Coordinator) isDraining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Shutdown drains the coordinator: probe loops stop, open SSE streams
// receive a draining event and close, and readiness flips to 503. The
// nodes themselves are not touched — they drain on their own schedule.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	already := c.draining
	c.draining = true
	stop := c.stop
	if !already {
		close(c.drainCh)
	}
	c.mu.Unlock()
	if already {
		return nil
	}
	c.reg.Event("drain.begin", "", nil)
	if stop != nil {
		stop()
	}
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
