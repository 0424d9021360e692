package store

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"diversity/internal/telemetry"
)

// Fsync policies for Options.Fsync.
const (
	// FsyncAlways makes every acknowledged record durable: Put and
	// Update (and Sync for a written record) return only after an fsync
	// that started after the record was written, so the record survives
	// an immediate power loss. Records written concurrently share that
	// fsync (group commit): it runs outside the store's lock and covers
	// every record written before it started. The default.
	FsyncAlways = "always"
	// FsyncOff leaves flushing to the OS page cache: appends are
	// buffered writes only and nothing waits for an fsync (snapshots are
	// still fsynced before their rename). A crash can lose the most
	// recent records — replay tolerates the torn tail, so the store still
	// opens cleanly.
	FsyncOff = "off"
)

// Options parameterise Open.
type Options struct {
	// Dir is the store directory; created (0o755) when missing.
	Dir string
	// Fsync is the append durability policy: FsyncAlways (default) or
	// FsyncOff.
	Fsync string
	// CompactEvery triggers compaction — materialise the ledger into a
	// fresh snapshot and start an empty journal segment — once this many
	// records have been appended to the current segment. <= 0 selects
	// 4096; compaction can also be invoked explicitly with Compact.
	CompactEvery int
	// Registry receives the store.* metrics; nil disables them.
	Registry *telemetry.Registry
	// Logger, when non-nil, receives replay and compaction lines.
	Logger *slog.Logger
}

// JobRecord is the persisted state of one submitted job. Spec and
// Result are opaque to the store: the serving layer writes its own
// encodings (an engine.Job and a stored result envelope) and decodes
// them on replay.
type JobRecord struct {
	// ID is the server-unique submission ID — the primary key.
	ID string `json:"id"`
	// Seq is the submission sequence number, so a restarted server
	// continues numbering where the crashed one stopped.
	Seq uint64 `json:"seq"`
	// EngineID is the stable spec-hash-derived job ID ("job-<hash16>").
	EngineID string `json:"engineId,omitempty"`
	// RunID is the submitting request's correlation ID.
	RunID string `json:"runId,omitempty"`
	// Kind is the job kind ("montecarlo", "analytic", ...).
	Kind string `json:"kind,omitempty"`
	// Spec is the submitted job spec, verbatim.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Status is the job's lifecycle state using the serving layer's
	// names: queued, running, done, failed, cancelled.
	Status string `json:"status"`
	// Error is the failure or cancellation message of non-done terminal
	// jobs.
	Error string `json:"error,omitempty"`
	// Submitted, Started and Finished are the lifecycle timestamps;
	// Started and Finished are zero until the transition happens.
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitempty"`
	Finished  time.Time `json:"finished,omitempty"`
	// Result is the persisted result envelope of done jobs.
	Result json.RawMessage `json:"result,omitempty"`
}

// Update is a partial JobRecord: non-zero fields overwrite the stored
// record with the same ID.
type Update struct {
	ID       string          `json:"id"`
	Status   string          `json:"status,omitempty"`
	Error    string          `json:"error,omitempty"`
	Started  time.Time       `json:"started,omitempty"`
	Finished time.Time       `json:"finished,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// op is one journal record: a put (full upsert), an update (partial,
// merged into the stored record) or an evict. A put or an evict removes
// the jobs Evict lists; an evict written before evictions were batched
// names its one job in ID instead.
type op struct {
	Op     string     `json:"op"`
	Job    *JobRecord `json:"job,omitempty"`    // put
	Update *Update    `json:"update,omitempty"` // update
	Evict  []string   `json:"evict,omitempty"`  // put, evict
	ID     string     `json:"id,omitempty"`     // single-job evict
}

const (
	opPut    = "put"
	opUpdate = "update"
	opEvict  = "evict"
)

// snapshotVersion versions the snapshot schema.
const snapshotVersion = 1

// snapshot is the materialised ledger a compaction writes.
type snapshot struct {
	Version int          `json:"version"`
	Gen     uint64       `json:"gen"`
	Jobs    []*JobRecord `json:"jobs"`
}

// ReplayStats reports what Open recovered.
type ReplayStats struct {
	// SnapshotJobs is the number of jobs loaded from the snapshot;
	// JournalRecords the number of intact journal records applied on
	// top of it.
	SnapshotJobs   int
	JournalRecords int
	// TornBytes is the size of the truncated journal tail (0 after a
	// clean shutdown).
	TornBytes int64
	// Gen is the generation the store resumed on.
	Gen uint64
}

// Store is a durable job ledger: an in-memory materialised state kept
// in lockstep with an append-only journal on disk. All methods are
// safe for concurrent use.
//
// Appends are group-committed. A record is written to the journal under
// mu and gets a Ticket; Sync(ticket) waits until an fsync that started
// after the write has finished. One fsync at a time runs, outside mu,
// and it covers every record written before it started, so concurrent
// appenders share it instead of queueing behind one another's flushes.
type Store struct {
	dir          string
	fsync        bool
	compactEvery int
	reg          *telemetry.Registry
	log          *slog.Logger
	// syncFile fsyncs the journal: (*os.File).Sync, swapped only by
	// fault-injection tests (SetSyncHook).
	syncFile func(*os.File) error

	mu      sync.Mutex
	idle    sync.Cond // on mu; broadcast whenever a journal fsync ends
	gen     uint64
	journal *os.File
	jbytes  int64 // current journal size
	pending int   // records appended to the current segment
	state   map[string]*JobRecord
	replay  ReplayStats
	closed  bool
	encBuf  []byte // reused frame buffer
	written uint64 // tickets issued: the number of records written
	durable uint64 // the highest ticket a finished fsync covers
	syncing bool   // a journal fsync is running outside mu
	// syncErr is the first failure that makes appending unsafe — a failed
	// journal fsync, or a compaction that published its snapshot but could
	// not start the next segment; it fails every later append.
	syncErr error
}

// Ticket names one record written to the journal; Sync(t) returns once
// that record is durable. The zero Ticket names no record.
type Ticket struct {
	seq     uint64    // the record's position in write order, from 1
	written time.Time // when its append began
}

// Open opens (creating if needed) the store in opts.Dir, replays the
// newest intact snapshot plus its journal — tolerating a torn journal
// tail from a crash mid-append — and resumes appending.
func Open(opts Options) (*Store, error) {
	switch opts.Fsync {
	case "", FsyncAlways, FsyncOff:
	default:
		return nil, fmt.Errorf("store: unknown fsync policy %q (want %s or %s)", opts.Fsync, FsyncAlways, FsyncOff)
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("store: directory must not be empty")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating directory: %w", err)
	}
	if opts.CompactEvery <= 0 {
		opts.CompactEvery = 4096
	}
	s := &Store{
		dir:          opts.Dir,
		fsync:        opts.Fsync != FsyncOff,
		compactEvery: opts.CompactEvery,
		reg:          opts.Registry,
		log:          opts.Logger,
		state:        make(map[string]*JobRecord),
		syncFile:     (*os.File).Sync,
	}
	s.idle.L = &s.mu
	// Pre-register the store.* series so the first scrape after a
	// restart carries them — zeros included (docs/METRICS.md).
	if s.reg != nil {
		s.reg.Counter("store.appends_total")
		s.reg.Counter("store.fsyncs_total")
		s.reg.Counter("store.replay_records_total")
		s.reg.Counter("store.compactions_total")
		s.reg.Gauge("store.journal_bytes")
		s.reg.Histogram("store.fsync_duration_seconds", telemetry.DurationBuckets)
		s.reg.Histogram("store.append_duration_seconds", telemetry.DurationBuckets)
	}
	if err := s.open(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) snapshotPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("snapshot-%08d.json", gen))
}

func (s *Store) journalPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("journal-%08d.log", gen))
}

// parseGen extracts the generation from a store filename.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	rest, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	rest, ok = strings.CutSuffix(rest, suffix)
	if !ok {
		return 0, false
	}
	gen, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return gen, true
}

// open recovers the newest intact generation and opens its journal for
// appending.
func (s *Store) open() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: listing %s: %w", s.dir, err)
	}
	var snapGens []uint64
	for _, e := range entries {
		if gen, ok := parseGen(e.Name(), "snapshot-", ".json"); ok {
			snapGens = append(snapGens, gen)
		}
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] > snapGens[j] })

	// Newest parseable snapshot wins. An unparseable one (crash windows
	// cannot produce this — snapshots rename into place — but disks can)
	// falls back to the previous generation.
	for _, gen := range snapGens {
		data, err := os.ReadFile(s.snapshotPath(gen))
		if err != nil {
			continue
		}
		var snap snapshot
		if err := json.Unmarshal(data, &snap); err != nil || snap.Version != snapshotVersion {
			s.logWarn("skipping unreadable snapshot", "gen", gen, "err", err)
			continue
		}
		s.gen = gen
		for _, job := range snap.Jobs {
			s.state[job.ID] = job
		}
		s.replay.SnapshotJobs = len(snap.Jobs)
		break
	}
	// The journal to resume is always the chosen generation's: gen 0 has
	// no snapshot (empty base state), and a crash between a compaction's
	// snapshot rename and its journal rotation leaves the new journal
	// missing — replayAndOpenJournal recreates it empty, and every record
	// of the previous segment is covered by the snapshot just loaded.
	s.replay.Gen = s.gen

	if err := s.replayAndOpenJournal(); err != nil {
		return err
	}
	s.cleanupStale()
	if s.reg != nil {
		s.reg.Counter("store.replay_records_total").Add(int64(s.replay.SnapshotJobs + s.replay.JournalRecords))
		s.reg.Gauge("store.journal_bytes").Set(float64(s.jbytes))
	}
	if s.log != nil {
		s.log.Info("store opened",
			"dir", s.dir, "gen", s.gen,
			"snapshot_jobs", s.replay.SnapshotJobs,
			"journal_records", s.replay.JournalRecords,
			"torn_bytes", s.replay.TornBytes)
	}
	return nil
}

// replayAndOpenJournal replays the current generation's journal,
// truncates any torn tail, and leaves the file open for appending.
func (s *Store) replayAndOpenJournal() error {
	path := s.journalPath(s.gen)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: opening journal: %w", err)
	}
	res, err := replayJournal(f)
	if err != nil {
		f.Close()
		return err
	}
	for _, payload := range res.payloads {
		o, err := decodeOp(payload)
		if err != nil {
			// CRC-valid but undecodable: a schema break, not a torn
			// tail. Skip the record rather than refuse the whole store.
			s.logWarn("skipping undecodable journal record", "err", err)
			continue
		}
		s.apply(o)
		s.replay.JournalRecords++
	}
	s.replay.TornBytes = res.tornBytes
	if res.tornBytes > 0 {
		s.logWarn("truncating torn journal tail", "bytes", res.tornBytes, "offset", res.goodBytes)
		if err := f.Truncate(res.goodBytes); err != nil {
			f.Close()
			return fmt.Errorf("store: truncating torn journal tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: syncing truncated journal: %w", err)
		}
	}
	if _, err := f.Seek(res.goodBytes, 0); err != nil {
		f.Close()
		return fmt.Errorf("store: seeking journal end: %w", err)
	}
	s.journal = f
	s.jbytes = res.goodBytes
	return nil
}

// apply merges one operation into the materialised state.
func (s *Store) apply(o op) {
	switch o.Op {
	case opPut:
		if o.Job != nil {
			job := *o.Job
			s.state[job.ID] = &job
		}
	case opUpdate:
		if o.Update == nil {
			return
		}
		job, ok := s.state[o.Update.ID]
		if !ok {
			return // updated after eviction: nothing to merge into
		}
		if o.Update.Status != "" {
			job.Status = o.Update.Status
		}
		if o.Update.Error != "" {
			job.Error = o.Update.Error
		}
		if !o.Update.Started.IsZero() {
			job.Started = o.Update.Started
		}
		if !o.Update.Finished.IsZero() {
			job.Finished = o.Update.Finished
		}
		if len(o.Update.Result) > 0 {
			job.Result = o.Update.Result
		}
	case opEvict:
		delete(s.state, o.ID)
	}
	for _, id := range o.Evict {
		delete(s.state, id)
	}
}

// cleanupStale removes files of generations older than the current one
// (and stray newer journals from failed compactions). Best effort.
func (s *Store) cleanupStale() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		var gen uint64
		var ok bool
		if gen, ok = parseGen(e.Name(), "snapshot-", ".json"); !ok {
			if gen, ok = parseGen(e.Name(), "journal-", ".log"); !ok {
				if strings.HasSuffix(e.Name(), ".tmp") {
					os.Remove(filepath.Join(s.dir, e.Name()))
				}
				continue
			}
		}
		if gen != s.gen {
			os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
}

// Jobs returns the materialised ledger in submission (Seq) order. The
// returned records are copies.
func (s *Store) Jobs() []JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobRecord, 0, len(s.state))
	for _, job := range s.state {
		out = append(out, *job)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// MaxSeq returns the highest submission sequence number ever stored
// (0 when the ledger is empty), so a restarted server continues
// numbering without collisions.
func (s *Store) MaxSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var maxSeq uint64
	for _, job := range s.state {
		maxSeq = max(maxSeq, job.Seq)
	}
	return maxSeq
}

// ReplayStats reports what Open recovered.
func (s *Store) ReplayStats() ReplayStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.replay
}

// Put journals a full job record (a new submission, or an upsert) and
// returns once it is durable.
func (s *Store) Put(job JobRecord) error {
	return s.commit(s.WritePut(job))
}

// Update journals a partial job update — non-zero fields overwrite the
// stored record — and returns once it is durable.
func (s *Store) Update(u Update) error {
	return s.commit(s.WriteUpdate(u))
}

// WritePut is Put without the wait: the record is written and applied,
// and Sync(ticket) makes it durable. The same record evicts the jobs
// evict names, so a replay keeps both or neither.
func (s *Store) WritePut(job JobRecord, evict ...string) (Ticket, error) {
	return s.write(op{Op: opPut, Job: &job, Evict: evict})
}

// WriteUpdate is Update without the wait for durability.
func (s *Store) WriteUpdate(u Update) (Ticket, error) {
	return s.write(op{Op: opUpdate, Update: &u})
}

// WriteEvict journals the removal of the jobs ids from the ledger in
// one record, without waiting for durability.
func (s *Store) WriteEvict(ids ...string) (Ticket, error) {
	return s.write(op{Op: opEvict, Evict: ids})
}

func (s *Store) commit(t Ticket, err error) error {
	if err != nil {
		return err
	}
	return s.Sync(t)
}

// write journals one operation, applies it to the materialised state,
// and compacts when the segment has accumulated CompactEvery records.
// Only the file write and the state update hold mu.
func (s *Store) write(o op) (Ticket, error) {
	start := time.Now()
	payload, err := json.Marshal(o)
	if err != nil {
		return Ticket{}, fmt.Errorf("store: encoding journal record: %w", err)
	}
	// A record past the replay cap would be indistinguishable from a torn
	// tail on the next open; refuse it while the caller can still react.
	if len(payload) > maxRecordLen {
		return Ticket{}, fmt.Errorf("store: journal record of %d bytes exceeds the %d byte cap", len(payload), maxRecordLen)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Ticket{}, fmt.Errorf("store: closed")
	}
	if s.syncErr != nil {
		return Ticket{}, s.syncErr
	}
	s.encBuf = frame(s.encBuf[:0], payload)
	if _, err := s.journal.Write(s.encBuf); err != nil {
		return Ticket{}, fmt.Errorf("store: appending journal record: %w", err)
	}
	s.jbytes += int64(len(s.encBuf))
	s.pending++
	s.written++
	t := Ticket{seq: s.written, written: start}
	s.apply(o)
	if s.reg != nil {
		s.reg.Counter("store.appends_total").Inc()
		s.reg.Gauge("store.journal_bytes").Set(float64(s.jbytes))
	}
	if s.pending < s.compactEvery {
		return t, nil
	}
	s.waitSyncIdleLocked()
	if s.pending < s.compactEvery {
		return t, nil // another append compacted while this one waited
	}
	err = s.compactLocked()
	if err != nil && s.syncErr == nil {
		// The compaction failed before publishing its snapshot, so the
		// old generation, which holds this record, is still
		// authoritative: the append stands, and the next one retries.
		s.logWarn("compaction failed; retrying on the next append", "err", err)
		return t, nil
	}
	return t, err
}

// Sync returns once the record t names is durable. Under FsyncAlways
// that is after an fsync that started after the record was written:
// Sync runs one itself when none is running, and otherwise waits for
// the running one and, if that began before the write, for the next,
// so concurrent callers share fsyncs. Under FsyncOff Sync returns at
// once. A failed fsync fails the store: the kernel may have dropped the
// pages it did not flush, leaving a hole replay would stop at, so Sync
// and every later append return that error until the store is
// reopened.
func (s *Store) Sync(t Ticket) error {
	if err := s.awaitDurable(t.seq); err != nil {
		return err
	}
	if s.reg != nil && t.seq > 0 {
		s.reg.Histogram("store.append_duration_seconds", telemetry.DurationBuckets).Observe(time.Since(t.written).Seconds())
	}
	return nil
}

func (s *Store) awaitDurable(seq uint64) error {
	if !s.fsync {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for seq > s.durable {
		switch {
		case s.syncErr != nil:
			return s.syncErr
		case s.syncing:
			s.idle.Wait()
		default:
			s.syncJournalLocked()
		}
	}
	return nil
}

// syncJournalLocked fsyncs the journal with mu released, then marks
// every record written before the fsync began durable. Called with mu
// held and no fsync running; returns with mu held.
func (s *Store) syncJournalLocked() {
	s.syncing = true
	target, f, syncFile := s.written, s.journal, s.syncFile
	s.mu.Unlock()
	start := time.Now()
	err := syncFile(f)
	s.observeFsync(start)
	s.mu.Lock()
	s.syncing = false
	if err != nil {
		if s.syncErr == nil {
			s.syncErr = fmt.Errorf("store: syncing journal: %w", err)
		}
	} else {
		s.durable = max(s.durable, target)
	}
	s.idle.Broadcast()
}

// waitSyncIdleLocked waits, releasing mu meanwhile, until no journal
// fsync is running, so the journal file may be rotated or closed.
func (s *Store) waitSyncIdleLocked() {
	for s.syncing {
		s.idle.Wait()
	}
}

// observeFsync counts one fsync of the journal or a snapshot that began
// at start.
func (s *Store) observeFsync(start time.Time) {
	if s.reg == nil {
		return
	}
	s.reg.Counter("store.fsyncs_total").Inc()
	s.reg.Histogram("store.fsync_duration_seconds", telemetry.DurationBuckets).Observe(time.Since(start).Seconds())
}

// SetSyncHook replaces the call that fsyncs the journal with fn; nil
// restores (*os.File).Sync. It lets the tests of the layers above the
// store observe or fail journal fsyncs.
func (s *Store) SetSyncHook(fn func(*os.File) error) {
	if fn == nil {
		fn = (*os.File).Sync
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncFile = fn
}

// Compact materialises the ledger into a fresh snapshot and starts an
// empty journal segment, bounding replay time and reclaiming the space
// of overwritten records. Open compacts implicitly every CompactEvery
// appends; call this for an explicit checkpoint (e.g. before a backup).
// It waits for a running journal fsync before it rotates the file.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waitSyncIdleLocked()
	return s.compactLocked()
}

// compactLocked is called with mu held and no journal fsync running. A
// failure before the snapshot's rename leaves the old generation
// authoritative and the store usable. A failure after it fails the
// store, as a failed fsync does: the published snapshot hides the old
// segment on the next open, so a later append to it would be lost.
func (s *Store) compactLocked() error {
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.syncErr != nil {
		return s.syncErr
	}
	next := s.gen + 1
	snap := snapshot{Version: snapshotVersion, Gen: next}
	snap.Jobs = make([]*JobRecord, 0, len(s.state))
	for _, job := range s.state {
		snap.Jobs = append(snap.Jobs, job)
	}
	sort.Slice(snap.Jobs, func(i, j int) bool { return snap.Jobs[i].Seq < snap.Jobs[j].Seq })
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}

	// Write-fsync-rename, then rotate the journal. A crash before the
	// rename leaves the old generation authoritative; after it, the new
	// snapshot is complete and a missing journal segment is simply
	// recreated empty on the next open.
	tmp := s.snapshotPath(next) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	start := time.Now()
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	s.observeFsync(start)
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, s.snapshotPath(next)); err != nil {
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		s.syncErr = fmt.Errorf("store: syncing store directory: %w", err)
		return s.syncErr
	}

	nj, err := os.OpenFile(s.journalPath(next), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		s.syncErr = fmt.Errorf("store: starting journal segment: %w", err)
		return s.syncErr
	}
	old := s.journal
	oldGen := s.gen
	s.journal = nj
	s.jbytes = 0
	s.pending = 0
	s.gen = next
	// The snapshot holds every record written so far.
	s.durable = s.written
	s.idle.Broadcast()
	old.Close()
	os.Remove(s.journalPath(oldGen))
	os.Remove(s.snapshotPath(oldGen))
	if s.reg != nil {
		s.reg.Counter("store.compactions_total").Inc()
		s.reg.Gauge("store.journal_bytes").Set(0)
	}
	if s.log != nil {
		s.log.Info("store compacted", "gen", next, "jobs", len(snap.Jobs), "snapshot_bytes", len(data))
	}
	return nil
}

func (s *Store) logWarn(msg string, args ...any) {
	if s.log != nil {
		s.log.Warn(msg, args...)
	}
}

// Close syncs and closes the journal, after any running fsync has
// finished. Further appends fail; Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.waitSyncIdleLocked()
	if s.syncErr == nil {
		s.syncJournalLocked() // no record can be written meanwhile: closed is set
	}
	if s.syncErr != nil {
		s.journal.Close()
		return s.syncErr
	}
	if err := s.journal.Close(); err != nil {
		return fmt.Errorf("store: closing journal: %w", err)
	}
	return nil
}
