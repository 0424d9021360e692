package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"diversity/internal/engine"
	"diversity/internal/fabric"
	"diversity/internal/server"
	"diversity/internal/store"
	"diversity/internal/telemetry"
)

// retainJobs bounds each node's job ledger. Clients never revisit old
// jobs, so a small ledger only caps the retained buffered results in
// memory, and eviction journaling reaches steady state during warm-up.
const retainJobs = 128

// sut is a workload's system under test, set up in this process.
type sut struct {
	target   target
	regs     []*telemetry.Registry // the engine's, or each node's then the coordinator's
	nodes    []*node
	coord    *listener
	journals []*gaugeTrack // one per node: store.journal_bytes over time
	closers  []func()
}

// setUp builds the workload's system: an engine, one serve node, or a
// coordinator over two nodes, each node with a durable store (fsync
// always) in a fresh temporary directory behind a loopback listener.
// With a tracer, every layer's handler is wrapped in timing middleware.
// The clients check every result they receive with chk.
func setUp(w workload, tr *tracer, chk *checker) (*sut, error) {
	s := &sut{}
	if w.mode == inEngine {
		reg := telemetry.NewRegistry()
		s.regs = []*telemetry.Registry{reg}
		s.target = &engineTarget{
			eng: engine.New(engine.Options{CacheSize: w.cacheSize, Telemetry: reg}),
			tr:  tr,
			chk: chk,
		}
		return s, nil
	}
	nodes := 1
	if w.mode == viaFabric {
		nodes = 2
	}
	var urls []string
	for range nodes {
		n, err := startNode(tr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.closers = append(s.closers, n.close)
		s.nodes = append(s.nodes, n)
		s.regs = append(s.regs, n.reg)
		s.journals = append(s.journals, &gaugeTrack{})
		urls = append(urls, n.url)
	}
	base := urls[0]
	if w.mode == viaFabric {
		reg := telemetry.NewRegistry()
		c, err := fabric.New(fabric.Config{Nodes: urls, Registry: reg})
		if err != nil {
			s.close()
			return nil, err
		}
		c.Start()
		l, err := listen(tr.wrap("fabric", c.Handler()))
		if err != nil {
			c.Shutdown(context.Background())
			s.close()
			return nil, err
		}
		s.closers = append(s.closers, func() {
			l.close()
			c.Shutdown(context.Background())
		})
		s.coord = l
		s.regs = append(s.regs, reg)
		base = l.url
	}
	ht := &httpTarget{tr: tr, chk: chk}
	for range clients {
		ht.clients = append(ht.clients, newClient(base, tr))
	}
	s.target = ht
	return s, nil
}

// close tears the system down, outermost layer first.
func (s *sut) close() {
	if ht, ok := s.target.(*httpTarget); ok {
		for _, c := range ht.clients {
			c.hc.CloseIdleConnections()
		}
	}
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// sampleJournals records each node's journal size after a unit ends.
func (s *sut) sampleJournals(at time.Time) {
	for i, n := range s.nodes {
		s.journals[i].add(at, n.reg.Gauge("store.journal_bytes"))
	}
}

// gaugeTrack is a time series of one gauge's samples.
type gaugeTrack struct {
	mu  sync.Mutex
	at  []time.Time
	val []float64
}

// add reads the gauge and appends the sample. It reads under the lock,
// so when clients sample at once the samples stay in the order read and
// grown never mistakes a late, smaller sample for a compaction.
func (g *gaugeTrack) add(at time.Time, gauge *telemetry.Gauge) {
	g.mu.Lock()
	g.at = append(g.at, at)
	g.val = append(g.val, gauge.Value())
	g.mu.Unlock()
}

// grown sums the journal's growth over the samples taken in the window.
// Compaction restarts the journal, so a drop counts the new segment's
// size; the bytes appended between the last sample and a compaction go
// uncounted, at most one unit's worth per compaction.
func (g *gaugeTrack) grown(win window) float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	total := 0.0
	for i := 1; i < len(g.val); i++ {
		if !win.contains(g.at[i]) {
			continue
		}
		if d := g.val[i] - g.val[i-1]; d >= 0 {
			total += d
		} else {
			total += g.val[i]
		}
	}
	return total
}

// listener serves a handler on a loopback port.
type listener struct {
	url  string
	hs   *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return l, nil
}

func (l *listener) close() {
	l.hs.Close()
	<-l.done
}

// node is one in-process serve node.
type node struct {
	url string
	reg *telemetry.Registry
	srv *server.Server
	st  *store.Store
	dir string
	l   *listener
}

// startNode runs a serve node as the serve-sweep and fabric-interactive
// workloads define it: 2 workers, queue depth 64, and a store with fsync
// always in a fresh temporary directory.
func startNode(tr *tracer) (*node, error) {
	dir, err := os.MkdirTemp("", "perfbench-store-")
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	st, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncAlways, Registry: reg})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	srv := server.New(server.Config{Workers: 2, QueueDepth: 64, RetainJobs: retainJobs, Store: st, Registry: reg})
	srv.Start()
	l, err := listen(tr.wrap("server", srv.Handler()))
	if err != nil {
		srv.Shutdown(context.Background())
		st.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return &node{url: l.url, reg: reg, srv: srv, st: st, dir: dir, l: l}, nil
}

func (n *node) close() {
	n.l.close()
	n.srv.Shutdown(context.Background())
	if err := n.st.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: closing store:", err)
	}
	os.RemoveAll(n.dir)
}

// engineTarget calls engine.Run in-process.
type engineTarget struct {
	eng *engine.Engine
	tr  *tracer
	chk *checker
}

func (e *engineTarget) run(ctx context.Context, client, seq int, specs []jobSpec, traced bool) unit {
	sp := specs[0]
	req := ""
	if traced {
		req = requestID(client, seq, 0, "")
		ctx = telemetry.ContextWithRunID(ctx, req)
	}
	start := time.Now()
	res, err := e.eng.Run(ctx, sp.job)
	ran := time.Now()
	j := jobRun{posted: start, done: ran, err: err}
	if err == nil {
		j.hit = res.FromCache
		j.err = e.chk.checkResult(sp.pool, res)
	}
	end := time.Now()
	if traced {
		e.tr.record("client", "job", req, start, end)
		e.tr.record("engine", "run", req, start, ran)
	}
	return unit{start: start, end: end, jobs: []jobRun{j}}
}

// httpTarget submits over the job API and waits on each job's event
// stream. Each client has one connection.
type httpTarget struct {
	clients []*client
	tr      *tracer
	chk     *checker
}

// run submits every spec of the unit, then follows each job's event
// stream in turn to its done event.
func (h *httpTarget) run(ctx context.Context, client, seq int, specs []jobSpec, traced bool) unit {
	c := h.clients[client]
	u := unit{start: time.Now(), jobs: make([]jobRun, len(specs))}
	ids := make([]string, len(specs))
	for k, sp := range specs {
		req := ""
		if traced {
			req = requestID(client, seq, k, "")
		}
		u.jobs[k].posted = time.Now()
		ids[k], u.jobs[k].err = c.submit(ctx, sp.body, req)
	}
	for k, sp := range specs {
		j := &u.jobs[k]
		if j.err != nil {
			continue
		}
		req := ""
		if traced {
			req = requestID(client, seq, k, ".ev")
		}
		view, size, at, err := c.await(ctx, ids[k], req)
		j.done, j.eventBytes, j.err = at, size, err
		if err == nil {
			j.err = h.chk.checkView(sp.pool, view)
		}
		if j.err == nil {
			j.hit = view.Result.FromCache
			j.submitted, j.started, j.finished = view.Submitted, *view.Started, *view.Finished
		}
	}
	u.end = time.Now()
	return u
}

// requestID names one traced request; spans of the same request share it.
func requestID(client, seq, job int, suffix string) string {
	return fmt.Sprintf("%sc%d.u%d.j%d%s", tracedPrefix, client, seq, job, suffix)
}

// client is one closed-loop client: one HTTP connection at a time.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		base: base,
		tr:   tr,
	}
}

// submit posts a job spec and returns its submission ID. A non-empty req
// is sent as X-Request-ID and the request is traced.
func (c *client) submit(ctx context.Context, body []byte, req string) (string, error) {
	r, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	r.Header.Set("Content-Type", "application/json")
	start := time.Now()
	data, status, err := c.do(r, req)
	if req != "" {
		c.tr.record("client", "jobs_submit", req, start, time.Now())
	}
	if err != nil {
		return "", err
	}
	if status != http.StatusAccepted {
		return "", fmt.Errorf("submit answered %d: %s", status, bytes.TrimSpace(data))
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &v); err != nil || v.ID == "" {
		return "", fmt.Errorf("submit answered without a job id: %s", bytes.TrimSpace(data))
	}
	return v.ID, nil
}

func (c *client) do(r *http.Request, req string) ([]byte, int, error) {
	if req != "" {
		r.Header.Set("X-Request-ID", req)
	}
	resp, err := c.hc.Do(r)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// doneView is the part of a done event's job view the checks read.
type doneView struct {
	Status    string     `json:"status"`
	Error     string     `json:"error"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
	Result    *struct {
		JobID      string `json:"jobId"`
		FromCache  bool   `json:"fromCache"`
		MonteCarlo *struct {
			Version population `json:"version"`
			System  population `json:"system"`
		} `json:"montecarlo"`
	} `json:"result"`
}

// await follows a job's event stream to its done event, returning the
// decoded view, the size of the event's data and the time it arrived. It
// reads the stream to its end so the connection can be reused.
func (c *client) await(ctx context.Context, id, req string) (doneView, int, time.Time, error) {
	var v doneView
	r, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return v, 0, time.Time{}, err
	}
	if req != "" {
		r.Header.Set("X-Request-ID", req)
	}
	start := time.Now()
	resp, err := c.hc.Do(r)
	if err != nil {
		return v, 0, time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		return v, 0, time.Time{}, fmt.Errorf("events answered %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	var (
		event string
		data  []byte
		at    time.Time
	)
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadString('\n')
		line = strings.TrimSuffix(line, "\n")
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
		} else if payload, ok := strings.CutPrefix(line, "data: "); ok && event == "done" && data == nil {
			data, at = []byte(payload), time.Now()
		}
		if err != nil {
			if !errors.Is(err, io.EOF) {
				return v, 0, time.Time{}, fmt.Errorf("reading events: %w", err)
			}
			break
		}
	}
	if req != "" {
		c.tr.record("client", "jobs_events", req, start, time.Now())
	}
	if data == nil {
		return v, 0, time.Time{}, fmt.Errorf("event stream of %s ended without a done event", id)
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return v, 0, time.Time{}, fmt.Errorf("decoding done event: %w", err)
	}
	return v, len(data), at, nil
}
