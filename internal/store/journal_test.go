package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// buildJournal returns the framed bytes of n put records.
func buildJournal(t testing.TB, n int) []byte {
	t.Helper()
	var buf []byte
	for i := 0; i < n; i++ {
		payload, err := json.Marshal(op{Op: opPut, Job: &JobRecord{
			ID:        fmt.Sprintf("j-%06d-ffff", i+1),
			Seq:       uint64(i + 1),
			Status:    "done",
			Submitted: time.Unix(int64(1_700_000_000+i), 0).UTC(),
			Result:    json.RawMessage(`{"jobId":"job-ffff"}`),
		}})
		if err != nil {
			t.Fatal(err)
		}
		buf = frame(buf, payload)
	}
	return buf
}

func TestReplayIntactJournal(t *testing.T) {
	t.Parallel()
	data := buildJournal(t, 5)
	res, err := replayJournal(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.payloads) != 5 || res.goodBytes != int64(len(data)) || res.tornBytes != 0 {
		t.Fatalf("replay = %d records, %d good bytes, %d torn; want 5, %d, 0",
			len(res.payloads), res.goodBytes, res.tornBytes, len(data))
	}
}

// TestReplayEveryTruncationPoint cuts a valid journal at every possible
// byte length: replay must never fail, and must recover exactly the
// records whose frames are complete.
func TestReplayEveryTruncationPoint(t *testing.T) {
	t.Parallel()
	data := buildJournal(t, 4)
	// recordEnds[i] is the offset at which record i's frame ends.
	var recordEnds []int64
	{
		res, err := replayJournal(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var off int64
		for _, p := range res.payloads {
			off += frameHeaderLen + int64(len(p))
			recordEnds = append(recordEnds, off)
		}
	}
	for cut := 0; cut <= len(data); cut++ {
		res, err := replayJournal(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		wantRecords := 0
		for _, end := range recordEnds {
			if int64(cut) >= end {
				wantRecords++
			}
		}
		if len(res.payloads) != wantRecords {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(res.payloads), wantRecords)
		}
		if res.goodBytes+res.tornBytes != int64(cut) {
			t.Fatalf("cut=%d: good %d + torn %d != %d", cut, res.goodBytes, res.tornBytes, cut)
		}
	}
}

func TestReplayStopsAtCorruptRecord(t *testing.T) {
	t.Parallel()
	data := buildJournal(t, 3)
	// Flip one byte inside the second record's payload.
	res, err := replayJournal(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	firstEnd := frameHeaderLen + len(res.payloads[0])
	corrupt := append([]byte(nil), data...)
	corrupt[firstEnd+frameHeaderLen+2] ^= 0xff
	res2, err := replayJournal(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.payloads) != 1 {
		t.Fatalf("recovered %d records past a mid-journal corruption, want 1", len(res2.payloads))
	}
	if res2.goodBytes != int64(firstEnd) {
		t.Fatalf("goodBytes = %d, want %d", res2.goodBytes, firstEnd)
	}
}

func TestReplayOversizedLengthIsTornTail(t *testing.T) {
	t.Parallel()
	data := buildJournal(t, 1)
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], maxRecordLen+1)
	data = append(data, hdr[:]...)
	res, err := replayJournal(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.payloads) != 1 || res.tornBytes != frameHeaderLen {
		t.Fatalf("replay = %d records, %d torn bytes; want 1, %d", len(res.payloads), res.tornBytes, frameHeaderLen)
	}
}

// TestOpenTruncatesTornTailAndResumesAppending proves the end-to-end
// crash contract: a journal with a torn tail opens cleanly, the tail is
// cut away on disk, and new appends replay on the next open.
func TestOpenTruncatesTornTailAndResumesAppending(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s := openTest(t, dir)
	for seq := uint64(1); seq <= 3; seq++ {
		if err := s.Put(record(fmt.Sprintf("j-%d", seq), seq)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: chop the last record in half.
	path := filepath.Join(dir, "journal-00000000.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-len(data)/6], 0o644); err != nil {
		t.Fatal(err)
	}

	r := openTest(t, dir)
	if got := len(r.Jobs()); got != 2 {
		t.Fatalf("replayed %d jobs from torn journal, want 2", got)
	}
	if st := r.ReplayStats(); st.TornBytes == 0 {
		t.Fatal("replay reported no torn bytes for a truncated journal")
	}
	if err := r.Put(record("j-after", 9)); err != nil {
		t.Fatalf("append after torn-tail recovery: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2 := openTest(t, dir)
	if got := len(r2.Jobs()); got != 3 {
		t.Fatalf("replayed %d jobs after post-recovery append, want 3", got)
	}
	if st := r2.ReplayStats(); st.TornBytes != 0 {
		t.Fatalf("second recovery still reports %d torn bytes", st.TornBytes)
	}
}

// FuzzReplayTruncatedTail proves replay tolerates a valid journal cut
// at an arbitrary byte boundary: never a panic, never an error, always
// a prefix of the records.
func FuzzReplayTruncatedTail(f *testing.F) {
	data := buildJournal(f, 6)
	f.Add(uint(0))
	f.Add(uint(len(data)))
	f.Add(uint(len(data) - 1))
	f.Add(uint(frameHeaderLen - 1))
	f.Add(uint(len(data) / 2))
	want, err := replayJournal(bytes.NewReader(data))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, cut uint) {
		cut %= uint(len(data)) + 1
		res, err := replayJournal(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if len(res.payloads) > len(want.payloads) {
			t.Fatalf("cut=%d: more records than the full journal", cut)
		}
		for i, p := range res.payloads {
			if !bytes.Equal(p, want.payloads[i]) {
				t.Fatalf("cut=%d: record %d differs from the full journal's", cut, i)
			}
		}
	})
}

// FuzzReplayArbitraryBytes feeds replay completely arbitrary journal
// contents — garbage headers, random lengths, corrupt payloads — and a
// full Open on top of them. Neither may panic, and Open must leave the
// store appendable.
func FuzzReplayArbitraryBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add(buildJournal(f, 2))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0}, frameHeaderLen+3))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := replayJournal(bytes.NewReader(data)); err != nil {
			t.Fatalf("replay of arbitrary bytes errored: %v", err)
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal-00000000.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("Open over arbitrary journal bytes: %v", err)
		}
		defer s.Close()
		if err := s.Put(record("j-fuzz", 1)); err != nil {
			t.Fatalf("append after arbitrary-bytes recovery: %v", err)
		}
	})
}

// TestLegacyJournalReplays: a journal written while a job took four
// records — put, a running update, the terminal update and a single-job
// evict — replays to the ledger it always did: the done job keeps the
// started timestamp of its running record, the evicted job is gone, and
// an update that lands after its evict is ignored.
func TestLegacyJournalReplays(t *testing.T) {
	t.Parallel()
	var data []byte
	for _, payload := range []string{
		`{"op":"put","job":{"id":"j-000001-aaaa","seq":1,"kind":"analytic","status":"queued","submitted":"2026-08-08T12:00:00Z"}}`,
		`{"op":"update","update":{"id":"j-000001-aaaa","status":"running","started":"2026-08-08T12:00:01Z"}}`,
		`{"op":"update","update":{"id":"j-000001-aaaa","status":"done","finished":"2026-08-08T12:00:02Z","result":{"jobId":"job-aaaa"}}}`,
		`{"op":"put","job":{"id":"j-000002-bbbb","seq":2,"kind":"analytic","status":"queued","submitted":"2026-08-08T12:00:03Z"}}`,
		`{"op":"evict","id":"j-000002-bbbb"}`,
		`{"op":"update","update":{"id":"j-000002-bbbb","status":"done","finished":"2026-08-08T12:00:04Z"}}`,
	} {
		data = frame(data, []byte(payload))
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal-00000000.log"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir)
	jobs := s.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("replayed %d jobs, want 1: the evicted job must stay gone", len(jobs))
	}
	got := jobs[0]
	started := time.Date(2026, 8, 8, 12, 0, 1, 0, time.UTC)
	if got.ID != "j-000001-aaaa" || got.Status != "done" || !got.Started.Equal(started) || string(got.Result) != `{"jobId":"job-aaaa"}` {
		t.Fatalf("replayed %+v, want j-000001-aaaa done, started %v, with its result", got, started)
	}
	if s.MaxSeq() != 1 {
		t.Fatalf("MaxSeq = %d, want 1", s.MaxSeq())
	}
	if st := s.ReplayStats(); st.JournalRecords != 6 || st.TornBytes != 0 {
		t.Fatalf("replay stats = %+v, want 6 journal records and no torn tail", st)
	}
}

// TestEvictionReplaysWithItsPut cuts a journal of puts that carry
// evictions, and terminal updates, at every byte, and opens a store on
// each cut: the ledger must equal the state after the last whole record,
// so a job is never gone while the put that evicted it is lost.
func TestEvictionReplaysWithItsPut(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s := openTest(t, dir, func(o *Options) { o.Fsync = FsyncOff })
	ledger := func(s *Store) string {
		b, err := json.Marshal(s.Jobs())
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	finished := time.Date(2026, 8, 8, 12, 0, 5, 0, time.UTC)
	states := []string{ledger(s)} // states[k]: the ledger after k records
	for seq := uint64(1); seq <= 4; seq++ {
		id := fmt.Sprintf("j-%d", seq)
		var evict []string
		if seq > 2 {
			evict = []string{fmt.Sprintf("j-%d", seq-2)}
		}
		if _, err := s.WritePut(JobRecord{ID: id, Seq: seq, Status: "queued"}, evict...); err != nil {
			t.Fatal(err)
		}
		states = append(states, ledger(s))
		if _, err := s.WriteUpdate(Update{ID: id, Status: "done", Finished: finished}); err != nil {
			t.Fatal(err)
		}
		states = append(states, ledger(s))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "journal-00000000.log"))
	if err != nil {
		t.Fatal(err)
	}
	full, err := replayJournal(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(full.payloads) != len(states)-1 {
		t.Fatalf("journal holds %d records, want %d", len(full.payloads), len(states)-1)
	}
	var recordEnds []int
	end := 0
	for _, p := range full.payloads {
		end += frameHeaderLen + len(p)
		recordEnds = append(recordEnds, end)
	}

	cutDir := t.TempDir()
	path := filepath.Join(cutDir, "journal-00000000.log")
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(Options{Dir: cutDir, Fsync: FsyncOff})
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		whole := 0
		for whole < len(recordEnds) && recordEnds[whole] <= cut {
			whole++
		}
		got := ledger(r)
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if got != states[whole] {
			t.Fatalf("cut=%d: ledger\n%s\nwant the state after %d whole records\n%s", cut, got, whole, states[whole])
		}
	}
}
