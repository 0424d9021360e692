package server

import (
	"encoding/json"
	"time"

	"diversity/internal/engine"
	"diversity/internal/experiments"
	"diversity/internal/faultmodel"
	"diversity/internal/montecarlo"
	"diversity/internal/store"
)

// restartReason marks jobs that were queued or running when the process
// died. The word "restart" is contractual (docs/API.md): clients tell
// interrupted jobs from genuine failures by it.
const restartReason = "interrupted by server restart"

// storedResult is the persisted form of an engine result: the envelope
// with the same fields, converted to and from engine.Result, minus the
// resolved fault set in the encoding. The fault set is rebuilt from the
// job spec on replay — journaling a million-fault scenario's parameters
// with every result would dominate the ledger. A Monte-Carlo payload is
// journaled summarised (montecarlo.Result.Summarized), about 1 kB
// whatever the replication count; records written before the node
// summarised results carry the raw samples instead, and decodeResult
// summarises those on replay.
type storedResult struct {
	Kind        engine.JobKind          `json:"kind"`
	Hash        string                  `json:"hash"`
	ID          string                  `json:"id"`
	FromCache   bool                    `json:"fromCache,omitempty"`
	RunID       string                  `json:"runId,omitempty"`
	ModelName   string                  `json:"model,omitempty"`
	FaultSet    *faultmodel.FaultSet    `json:"-"`
	MonteCarlo  *montecarlo.Result      `json:"montecarlo,omitempty"`
	RareEvent   *engine.RareEventResult `json:"rareEvent,omitempty"`
	Experiments []*experiments.Result   `json:"experiments,omitempty"`
	Analytic    *engine.AnalyticResult  `json:"analytic,omitempty"`
}

// encodeResult maps an engine result to its persisted form.
func encodeResult(res *engine.Result) (json.RawMessage, error) {
	return json.Marshal(storedResult(*res))
}

// decodeResult rebuilds an engine result from its persisted form, in
// the summarised form the live path keeps, and resolves its model
// through the engine, best effort: a spec that no longer resolves (a
// scenario renamed across versions) leaves FaultSet nil, and the
// replayed view omits the model fault count.
func (s *Server) decodeResult(raw json.RawMessage, job engine.Job) (*engine.Result, error) {
	var sr storedResult
	if err := json.Unmarshal(raw, &sr); err != nil {
		return nil, err
	}
	stored := engine.Result(sr)
	res, err := summarized(&stored)
	if err != nil {
		return nil, err
	}
	var model *engine.ModelSpec
	switch {
	case job.MonteCarlo != nil:
		model = &job.MonteCarlo.Model
	case job.RareEvent != nil:
		model = &job.RareEvent.Model
	case job.Analytic != nil:
		model = &job.Analytic.Model
	default:
		return res, nil // experiment suites sweep their own populations
	}
	res.FaultSet, _, _ = s.eng.ResolveModel(*model)
	return res, nil
}

// summarized returns res with its Monte-Carlo payload reduced to the
// two summaries the result view shows; other kinds are returned as they
// are.
func summarized(res *engine.Result) (*engine.Result, error) {
	if res.MonteCarlo == nil {
		return res, nil
	}
	mc, err := res.MonteCarlo.Summarized()
	if err != nil {
		return nil, err
	}
	out := *res
	out.MonteCarlo = mc
	return &out, nil
}

// storePut writes a fresh submission's record, which also evicts the
// jobs evict names. Called with s.mu held, before the queue send; submit
// waits for the returned ticket once it has released s.mu, and answers
// 202 only when the record is durable. A failure fails the submission
// (the client sees a 500 and can retry), because acknowledging a job the
// ledger never saw would silently downgrade the durability contract.
func (s *Server) storePut(js *jobState, seq uint64, evict []string) (store.Ticket, error) {
	if s.store == nil {
		return store.Ticket{}, nil
	}
	spec, err := json.Marshal(js.job)
	if err != nil {
		return store.Ticket{}, err
	}
	return s.store.WritePut(store.JobRecord{
		ID:        js.id,
		Seq:       seq,
		EngineID:  js.engineID,
		RunID:     js.runID,
		Kind:      string(js.job.Kind),
		Spec:      spec,
		Status:    string(statusQueued),
		Submitted: js.submitted,
	}, evict...)
}

// storeSync waits until the record t names is durable.
func (s *Server) storeSync(t store.Ticket) error {
	if s.store == nil {
		return nil
	}
	return s.store.Sync(t)
}

// storeWrite writes a lifecycle transition without waiting for it to be
// durable, best effort: the client already holds the job and its state
// is authoritative in memory, and a record whose terminal transition
// never landed is re-marked failed/restart on the next startup. An
// update carrying a result that the store rejects (an oversized record)
// is retried without the result, so at least the terminal status is
// journaled. ok reports whether a record was written.
func (s *Server) storeWrite(u store.Update) (t store.Ticket, ok bool) {
	if s.store == nil {
		return store.Ticket{}, false
	}
	t, err := s.store.WriteUpdate(u)
	if err != nil && len(u.Result) > 0 {
		if s.log != nil {
			s.log.Warn("persisting job result failed; retrying status-only", "id", u.ID, "error", err)
		}
		u.Result = nil
		t, err = s.store.WriteUpdate(u)
	}
	if err != nil {
		if s.log != nil {
			s.log.Warn("persisting job transition failed", "id", u.ID, "status", u.Status, "error", err)
		}
		return store.Ticket{}, false
	}
	return t, true
}

// storeUpdate journals a lifecycle transition and waits until it is
// durable, best effort (see storeWrite).
func (s *Server) storeUpdate(u store.Update) {
	t, ok := s.storeWrite(u)
	if !ok {
		return
	}
	if err := s.storeSync(t); err != nil && s.log != nil {
		s.log.Warn("persisting job transition failed", "id", u.ID, "status", u.Status, "error", err)
	}
}

// replayFromStore rebuilds the in-memory ledger from the durable store:
// finished results become fetchable under their original submission IDs
// again, jobs that were queued or running when the process died are
// re-marked failed/restart, the engine result cache is warmed so
// resubmitting a pre-restart spec is a cache hit, and submission
// numbering resumes past the highest replayed sequence. Jobs past
// RetainJobs (the cap was lowered, or more jobs were in flight than it
// allows) are evicted in one record. The re-marks and that record are
// written, then made durable by one fsync, so the next restart replays
// them instead of re-deciding. Called from New, before the worker pool
// exists.
func (s *Server) replayFromStore() {
	s.mu.Lock()
	records := s.store.Jobs()
	s.seq = s.store.MaxSeq()
	var interrupted, warmed int
	var last store.Ticket // the last record written
	for i := range records {
		rec := &records[i]
		js := &jobState{
			id:        rec.ID,
			engineID:  rec.EngineID,
			runID:     rec.RunID,
			tracker:   newProgressTracker(),
			status:    jobStatus(rec.Status),
			errMsg:    rec.Error,
			submitted: rec.Submitted,
			started:   rec.Started,
			finished:  rec.Finished,
		}
		if len(rec.Spec) > 0 {
			if err := json.Unmarshal(rec.Spec, &js.job); err != nil && s.log != nil {
				s.log.Warn("replayed job has an undecodable spec", "id", rec.ID, "error", err)
			}
		}
		if js.job.Kind == "" {
			js.job.Kind = engine.JobKind(rec.Kind)
		}
		switch js.status {
		case statusQueued, statusRunning:
			js.status = statusFailed
			js.errMsg = restartReason
			js.finished = time.Now()
			if t, ok := s.storeWrite(store.Update{
				ID:       js.id,
				Status:   string(statusFailed),
				Error:    restartReason,
				Finished: js.finished,
			}); ok {
				last = t
			}
			s.recordTerminal(js, statusFailed)
			interrupted++
		case statusDone:
			if len(rec.Result) > 0 {
				res, err := s.decodeResult(rec.Result, js.job)
				if err != nil {
					if s.log != nil {
						s.log.Warn("replayed job has an undecodable result", "id", rec.ID, "error", err)
					}
					break
				}
				js.result = res
				// Warm the LRU with FromCache unset: the hit path copies
				// the entry and flags its own copies.
				warm := *res
				warm.FromCache = false
				s.eng.WarmCache(res.Hash, &warm)
				warmed++
			}
		}
		js.tracker.finish() // every replayed job is terminal
		s.jobs[js.id] = js
		s.order = append(s.order, js.id)
	}
	if evict := s.evictionsLocked(0); len(evict) > 0 {
		t, err := s.store.WriteEvict(evict...)
		if err == nil {
			last = t
			s.forgetLocked(evict)
		} else if s.log != nil {
			s.log.Warn("persisting replay evictions failed", "jobs", len(evict), "error", err)
		}
	}
	nextSeq := s.seq + 1
	s.mu.Unlock()
	if err := s.storeSync(last); err != nil && s.log != nil {
		s.log.Warn("persisting restart re-marks and evictions failed", "error", err)
	}
	if s.log != nil {
		s.log.Info("job ledger replayed",
			"jobs", len(records), "interrupted", interrupted, "cache_warmed", warmed, "next_seq", nextSeq)
	}
}
