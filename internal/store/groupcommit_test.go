package store

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diversity/internal/telemetry"
)

// journalPutIDs returns the IDs of the put records in the journal file
// at path, as far as its intact records reach.
func journalPutIDs(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := replayJournal(f)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, payload := range res.payloads {
		o, err := decodeOp(payload)
		if err != nil {
			return nil, err
		}
		if o.Op == opPut {
			ids = append(ids, o.Job.ID)
		}
	}
	return ids, nil
}

// durableLog is a sync hook that records which put records each
// finished fsync covered: the records on disk when it began.
type durableLog struct {
	t       *testing.T
	mu      sync.Mutex
	durable map[string]bool
	syncs   int
	// hold, when non-nil, runs in the first fsync, after it has read
	// the journal and before it flushes.
	hold func()
}

func (d *durableLog) sync(f *os.File) error {
	ids, err := journalPutIDs(f.Name())
	if err != nil {
		d.t.Errorf("reading the journal at fsync start: %v", err)
	}
	d.mu.Lock()
	hold := d.hold
	d.hold = nil
	d.mu.Unlock()
	if hold != nil {
		hold()
	}
	if err := f.Sync(); err != nil {
		d.t.Errorf("fsync of the journal: %v", err)
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.syncs++
	for _, id := range ids {
		d.durable[id] = true
	}
	return nil
}

func (d *durableLog) isDurable(id string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.durable[id]
}

// TestGroupCommit: concurrent appenders under FsyncAlways each return
// only after an fsync that began with their record on disk, and they
// share fsyncs, so there are fewer fsyncs than appends.
func TestGroupCommit(t *testing.T) {
	t.Parallel()
	reg := telemetry.NewRegistry()
	s := openTest(t, t.TempDir(), func(o *Options) { o.Registry = reg })
	d := &durableLog{t: t, durable: make(map[string]bool)}
	s.syncFile = d.sync
	appends := reg.Counter("store.appends_total")

	putAll := func(writers, each int, round string) {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					id := fmt.Sprintf("j-%s-%d-%d", round, w, i)
					if err := s.Put(record(id, uint64(i+1))); err != nil {
						t.Errorf("Put(%s): %v", id, err)
						return
					}
					if !d.isDurable(id) {
						t.Errorf("Put(%s) returned before an fsync covered it", id)
					}
				}
			}(w)
		}
		wg.Wait()
	}

	// Hold the first fsync until every writer has written: records
	// written while it runs are not its to cover, and one more fsync
	// covers all of them at once.
	const writers = 8
	d.hold = func() {
		deadline := time.Now().Add(10 * time.Second)
		for appends.Value() < writers && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	putAll(writers, 1, "held")
	if d.syncs > 2 {
		t.Fatalf("%d writers behind one held fsync took %d fsyncs, want at most 2", writers, d.syncs)
	}

	// Free running, the writers still share fsyncs.
	putAll(writers, 25, "free")
	if got, n := int64(d.syncs), appends.Value(); got >= n {
		t.Fatalf("%d fsyncs for %d appends, want fewer fsyncs than appends", got, n)
	}
	if h := reg.Histogram("store.fsync_duration_seconds", telemetry.DurationBuckets); h.Count() != int64(d.syncs) {
		t.Fatalf("store.fsync_duration_seconds has %d observations for %d fsyncs", h.Count(), d.syncs)
	}
	if h := reg.Histogram("store.append_duration_seconds", telemetry.DurationBuckets); h.Count() != appends.Value() {
		t.Fatalf("store.append_duration_seconds has %d observations for %d durable appends", h.Count(), appends.Value())
	}
}

// TestWriteThenSyncOnce: records written without waiting become durable
// with one Sync of the last ticket.
func TestWriteThenSyncOnce(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	s := openTest(t, dir)
	d := &durableLog{t: t, durable: make(map[string]bool)}
	s.syncFile = d.sync
	var last Ticket
	for seq := uint64(1); seq <= 5; seq++ {
		tk, err := s.WritePut(record(fmt.Sprintf("j-%d", seq), seq))
		if err != nil {
			t.Fatal(err)
		}
		last = tk
	}
	if d.syncs != 0 {
		t.Fatalf("writes without a wait ran %d fsyncs", d.syncs)
	}
	if err := s.Sync(last); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(last); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(Ticket{}); err != nil {
		t.Fatal(err)
	}
	if d.syncs != 1 {
		t.Fatalf("Sync of five written records ran %d fsyncs, want 1", d.syncs)
	}
	for seq := 1; seq <= 5; seq++ {
		if id := fmt.Sprintf("j-%d", seq); !d.isDurable(id) {
			t.Fatalf("%s not covered by the fsync", id)
		}
	}
}

// TestRotationWaitsForRunningFsync: Compact and Close never rotate or
// close the journal while an fsync of it runs outside the lock.
func TestRotationWaitsForRunningFsync(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name   string
		rotate func(*Store) error
	}{
		{"compact", (*Store).Compact},
		{"close", (*Store).Close},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			s := openTest(t, t.TempDir())
			entered, release := make(chan struct{}), make(chan struct{})
			var held atomic.Bool
			s.syncFile = func(f *os.File) error {
				if held.CompareAndSwap(false, true) {
					close(entered)
					<-release
				}
				if err := f.Sync(); err != nil {
					t.Errorf("fsync of the journal after %s began: %v", tc.name, err)
					return err
				}
				return nil
			}
			putDone := make(chan error, 1)
			go func() { putDone <- s.Put(record("j-1", 1)) }()
			select {
			case <-entered:
			case err := <-putDone:
				close(release)
				t.Fatalf("Put returned (%v) without an fsync", err)
			case <-time.After(10 * time.Second):
				close(release)
				t.Fatal("Put started no fsync")
			}

			rotated := make(chan error, 1)
			go func() { rotated <- tc.rotate(s) }()
			select {
			case err := <-rotated:
				close(release)
				t.Fatalf("%s returned (%v) while an fsync of the journal was running", tc.name, err)
			case <-time.After(50 * time.Millisecond):
			}
			close(release)
			for _, ch := range []struct {
				what string
				c    chan error
			}{{tc.name, rotated}, {"Put", putDone}} {
				select {
				case err := <-ch.c:
					if err != nil {
						t.Fatalf("%s: %v", ch.what, err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("%s did not return after the fsync finished", ch.what)
				}
			}
		})
	}
}

// TestCompactionUnderConcurrentAppends: appends, their fsyncs and
// compactions interleave freely, and no fsync meets a closed journal.
func TestCompactionUnderConcurrentAppends(t *testing.T) {
	t.Parallel()
	s := openTest(t, t.TempDir(), func(o *Options) { o.CompactEvery = 16 })
	s.syncFile = func(f *os.File) error {
		err := f.Sync()
		if errors.Is(err, os.ErrClosed) {
			t.Errorf("fsync met a closed journal: %v", err)
		}
		return err
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id := fmt.Sprintf("j-%d-%d", w, i)
				if err := s.Put(record(id, uint64(i+1))); err != nil {
					t.Errorf("Put(%s): %v", id, err)
					return
				}
				if i%10 == 9 {
					if err := s.Compact(); err != nil {
						t.Errorf("Compact: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedFsyncFailsTheStore: a failed fsync is returned to every
// append it covered and refuses later appends, because the journal may
// now hold a hole that replay would stop at.
func TestFailedFsyncFailsTheStore(t *testing.T) {
	t.Parallel()
	s := openTest(t, t.TempDir())
	injected := errors.New("injected fsync failure")
	s.syncFile = func(*os.File) error { return injected }
	if err := s.Put(record("j-1", 1)); !errors.Is(err, injected) {
		t.Fatalf("Put over a failing fsync = %v, want the injected error", err)
	}
	s.syncFile = (*os.File).Sync
	if _, err := s.WritePut(record("j-2", 2)); !errors.Is(err, injected) {
		t.Fatalf("a write after a failed fsync = %v, want the injected error", err)
	}
	if err := s.Close(); !errors.Is(err, injected) {
		t.Fatalf("Close after a failed fsync = %v, want the injected error", err)
	}
}
