package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"diversity/internal/telemetry"
)

func openTest(t *testing.T, dir string, mutate ...func(*Options)) *Store {
	t.Helper()
	opts := Options{Dir: dir}
	for _, m := range mutate {
		m(&opts)
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func record(id string, seq uint64) JobRecord {
	return JobRecord{
		ID:        id,
		Seq:       seq,
		EngineID:  "job-deadbeefdeadbeef",
		RunID:     "run-test",
		Kind:      "analytic",
		Spec:      json.RawMessage(`{"kind":"analytic"}`),
		Status:    "queued",
		Submitted: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
	}
}

func TestPutUpdateEvictRoundTrip(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s := openTest(t, dir)

	finished := time.Date(2026, 8, 8, 12, 0, 5, 0, time.UTC)
	if err := s.Put(record("j-000001-dead", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(record("j-000002-beef", 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(Update{ID: "j-000001-dead", Status: "done", Finished: finished, Result: json.RawMessage(`{"jobId":"job-x"}`)}); err != nil {
		t.Fatal(err)
	}
	if err := s.commit(s.WriteEvict("j-000002-beef")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, dir)
	jobs := r.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("replayed %d jobs, want 1 (evict must stick)", len(jobs))
	}
	got := jobs[0]
	if got.ID != "j-000001-dead" || got.Status != "done" || !got.Finished.Equal(finished) {
		t.Fatalf("replayed record = %+v", got)
	}
	if string(got.Result) != `{"jobId":"job-x"}` {
		t.Fatalf("replayed result = %s", got.Result)
	}
	if !got.Submitted.Equal(record("", 0).Submitted) {
		t.Fatalf("submitted timestamp lost: %v", got.Submitted)
	}
	if r.MaxSeq() != 1 {
		t.Fatalf("MaxSeq = %d, want 1", r.MaxSeq())
	}
	st := r.ReplayStats()
	if st.JournalRecords != 4 || st.TornBytes != 0 {
		t.Fatalf("replay stats = %+v, want 4 journal records and no torn tail", st)
	}
}

func TestUpdateAfterEvictIsIgnored(t *testing.T) {
	t.Parallel()
	s := openTest(t, t.TempDir())
	if err := s.Put(record("j-1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.commit(s.WriteEvict("j-1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(Update{ID: "j-1", Status: "done"}); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Jobs()); got != 0 {
		t.Fatalf("ledger has %d jobs after evict, want 0", got)
	}
}

func TestCompactionSnapshotAndFreshSegment(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s := openTest(t, dir)
	for seq := uint64(1); seq <= 5; seq++ {
		rec := record("j-"+strings.Repeat("0", int(seq)), seq)
		if err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.commit(s.WriteEvict("j-0")); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}

	// The snapshot of the new generation exists; the old segment and the
	// overwritten records are gone; the fresh segment is empty.
	if _, err := os.Stat(filepath.Join(dir, "snapshot-00000001.json")); err != nil {
		t.Fatalf("snapshot missing after compaction: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "journal-00000000.log")); !os.IsNotExist(err) {
		t.Fatalf("old journal segment still present (err=%v)", err)
	}
	info, err := os.Stat(filepath.Join(dir, "journal-00000001.log"))
	if err != nil {
		t.Fatalf("fresh journal segment missing: %v", err)
	}
	if info.Size() != 0 {
		t.Fatalf("fresh journal segment has %d bytes, want 0", info.Size())
	}

	// Post-compaction appends land in the new segment and replay on top
	// of the snapshot.
	if err := s.Put(record("j-post", 99)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, dir)
	if got := len(r.Jobs()); got != 5 {
		t.Fatalf("replayed %d jobs after compaction, want 5", got)
	}
	st := r.ReplayStats()
	if st.SnapshotJobs != 4 || st.JournalRecords != 1 || st.Gen != 1 {
		t.Fatalf("replay stats = %+v, want 4 snapshot jobs + 1 journal record on gen 1", st)
	}
}

func TestAutoCompactionEveryN(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	s := openTest(t, t.TempDir(), func(o *Options) { o.CompactEvery = 3; o.Registry = reg })
	for seq := uint64(1); seq <= 7; seq++ {
		if err := s.Put(record("j-auto", seq)); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("store.compactions_total").Value(); got != 2 {
		t.Fatalf("compactions after 7 appends with CompactEvery=3: %d, want 2", got)
	}
}

func TestFsyncPolicy(t *testing.T) {
	t.Parallel()
	regAlways := telemetry.NewRegistry()
	s := openTest(t, t.TempDir(), func(o *Options) { o.Registry = regAlways })
	if err := s.Put(record("j-1", 1)); err != nil {
		t.Fatal(err)
	}
	if got := regAlways.Counter("store.fsyncs_total").Value(); got < 1 {
		t.Fatalf("fsyncs under %q after one append: %d, want >= 1", FsyncAlways, got)
	}

	regOff := telemetry.NewRegistry()
	off := openTest(t, t.TempDir(), func(o *Options) { o.Fsync = FsyncOff; o.Registry = regOff })
	if err := off.Put(record("j-1", 1)); err != nil {
		t.Fatal(err)
	}
	if got := regOff.Counter("store.fsyncs_total").Value(); got != 0 {
		t.Fatalf("fsyncs under %q after one append: %d, want 0", FsyncOff, got)
	}

	if _, err := Open(Options{Dir: t.TempDir(), Fsync: "sometimes"}); err == nil {
		t.Fatal("Open accepted an unknown fsync policy")
	}
}

func TestMetricsRegistered(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	s := openTest(t, t.TempDir(), func(o *Options) { o.Registry = reg })
	if err := s.Put(record("j-1", 1)); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for _, name := range []string{"store.appends_total", "store.fsyncs_total", "store.replay_records_total", "store.compactions_total"} {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %s not registered", name)
		}
	}
	if _, ok := snap.Gauges["store.journal_bytes"]; !ok {
		t.Error("gauge store.journal_bytes not registered")
	}
	if snap.Counters["store.appends_total"] != 1 {
		t.Errorf("store.appends_total = %d, want 1", snap.Counters["store.appends_total"])
	}
	if snap.Gauges["store.journal_bytes"] <= 0 {
		t.Errorf("store.journal_bytes = %v, want > 0", snap.Gauges["store.journal_bytes"])
	}
}

func TestReplayCountsIntoRegistry(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s := openTest(t, dir)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := s.Put(record("j-r", seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	openTest(t, dir, func(o *Options) { o.Registry = reg })
	if got := reg.Counter("store.replay_records_total").Value(); got != 3 {
		t.Fatalf("store.replay_records_total = %d, want 3", got)
	}
}

func TestClosedStoreRefusesAppends(t *testing.T) {
	t.Parallel()
	s := openTest(t, t.TempDir())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v, want idempotent nil", err)
	}
	if err := s.Put(record("j-1", 1)); err == nil {
		t.Fatal("Put on a closed store succeeded")
	}
}

// TestFailedCompactionBeforeRenameKeepsTheAppend: a compaction that fails
// before its snapshot is published leaves the old generation
// authoritative, so the append that triggered it still succeeds and
// replays, and the next append retries the compaction. A non-empty
// directory planted at the snapshot's temporary path blocks it, for root
// too, and survives the clean-up of a reopen.
func TestFailedCompactionBeforeRenameKeepsTheAppend(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	block := filepath.Join(dir, "snapshot-00000001.json.tmp")
	if err := os.MkdirAll(filepath.Join(block, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	every2 := func(o *Options) { o.CompactEvery = 2 }
	s := openTest(t, dir, every2)
	for seq := uint64(1); seq <= 2; seq++ {
		if err := s.Put(record(fmt.Sprintf("j-%d", seq), seq)); err != nil {
			t.Fatalf("Put %d over a failing compaction: %v", seq, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	r := openTest(t, dir, every2, func(o *Options) { o.Registry = reg })
	if got, st := len(r.Jobs()), r.ReplayStats(); got != 2 || st.Gen != 0 {
		t.Fatalf("replayed %d jobs on gen %d, want 2 on gen 0", got, st.Gen)
	}
	for seq := uint64(3); seq <= 4; seq++ {
		if err := r.Put(record(fmt.Sprintf("j-%d", seq), seq)); err != nil {
			t.Fatalf("Put %d over a failing compaction: %v", seq, err)
		}
	}
	if got := reg.Counter("store.compactions_total").Value(); got != 0 {
		t.Fatalf("%d compactions through a blocked snapshot path, want 0", got)
	}
	if err := os.RemoveAll(block); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(record("j-5", 5)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("store.compactions_total").Value(); got != 1 {
		t.Fatalf("%d compactions once the path is free, want the next append to compact", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(openTest(t, dir).Jobs()); got != 5 {
		t.Fatalf("replayed %d jobs, want 5", got)
	}
}

// TestFailedCompactionAfterRenameFailsTheStore: once a compaction has
// published its snapshot, a failure to start the next segment fails the
// store, as a failed fsync does — a later append to the old segment would
// be hidden by the snapshot on the next open. A directory planted at the
// next segment's path, after Open has cleaned up stray segments, blocks
// it.
func TestFailedCompactionAfterRenameFailsTheStore(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s := openTest(t, dir, func(o *Options) { o.CompactEvery = 2 })
	block := filepath.Join(dir, "journal-00000001.log")
	if err := os.Mkdir(block, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(record("j-1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(record("j-2", 2)); err == nil {
		t.Fatal("Put whose compaction could not start the next segment succeeded, want an error")
	}
	if err := s.Put(record("j-3", 3)); err == nil {
		t.Fatal("Put after a failed compaction succeeded, want an error")
	}
	if _, err := s.WriteUpdate(Update{ID: "j-1", Status: "done"}); err == nil {
		t.Fatal("WriteUpdate after a failed compaction succeeded, want an error")
	}
	s.Close()

	if err := os.Remove(block); err != nil {
		t.Fatal(err)
	}
	r := openTest(t, dir)
	jobs := r.Jobs()
	if len(jobs) != 2 || jobs[0].ID != "j-1" || jobs[0].Status != "queued" || jobs[1].ID != "j-2" {
		t.Fatalf("replayed %+v, want j-1 as put and j-2, the record the published snapshot holds", jobs)
	}
}
