package fabric

import (
	"bytes"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"

	"diversity/internal/server"
)

// flushRecorder collects what copyEvents writes and counts its flushes.
type flushRecorder struct {
	bytes.Buffer
	flushes int
}

func (f *flushRecorder) Flush() { f.flushes++ }

// FuzzCopyEvents holds the coordinator's SSE line proxy to a reference
// line scan: every byte read is written, in order, including a final
// line with no newline, "\r\n" endings and lines longer than the
// reader's buffer; there is one flush per line; and the stream counts
// as terminal exactly when some line starts with "event: done" or
// "event: draining". Each input is read whole and one byte at a time.
func FuzzCopyEvents(f *testing.F) {
	frames := httptest.NewRecorder()
	server.WriteSSE(frames, frames, "progress", map[string]int{"done": 2048, "total": 20000})
	server.WriteSSE(frames, frames, "done", map[string]string{"status": "done"})
	f.Add(frames.Body.Bytes())
	drain := httptest.NewRecorder()
	server.WriteSSE(drain, drain, "draining", map[string]string{"status": "draining"})
	f.Add(drain.Body.Bytes())
	f.Add([]byte(": keepalive\n\nevent: progress\r\ndata: {}\r\n\r\nevent: done"))
	f.Add([]byte("data: " + strings.Repeat("x", 10000) + "\nevent: doneish\n"))
	f.Add([]byte(" event: done\nevent:done\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		var wantTerminal bool
		wantFlushes := 0
		for _, line := range strings.SplitAfter(string(in), "\n") {
			if line == "" {
				continue
			}
			wantFlushes++
			if strings.HasPrefix(line, "event: done") || strings.HasPrefix(line, "event: draining") {
				wantTerminal = true
			}
		}
		for _, oneByte := range []bool{false, true} {
			var body io.Reader = bytes.NewReader(in)
			if oneByte {
				body = iotest.OneByteReader(body)
			}
			var rec flushRecorder
			terminal := copyEvents(&rec, &rec, body)
			if !bytes.Equal(rec.Bytes(), in) {
				t.Fatalf("one byte at a time %v: wrote %q, read %q", oneByte, rec.Bytes(), in)
			}
			if rec.flushes != wantFlushes {
				t.Errorf("one byte at a time %v: %d flushes, want one per line (%d)", oneByte, rec.flushes, wantFlushes)
			}
			if terminal != wantTerminal {
				t.Errorf("one byte at a time %v: terminal = %v, reference line scan says %v", oneByte, terminal, wantTerminal)
			}
		}
	})
}
