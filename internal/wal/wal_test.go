package wal

import (
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
)

func delivery(seq uint64, payload string) *types.Message {
	return &types.Message{
		Kind:     types.KindCast,
		View:     3,
		ID:       types.MsgID{Sender: types.ProcessID{Site: 1, Incarnation: 1}, Seq: seq},
		Ordering: types.Total,
		Seq:      seq,
		Payload:  []byte(payload),
	}
}

func mustOpen(t *testing.T, path string) (*Log, Recovered) {
	t.Helper()
	l, rec, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return l, rec
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.wal")
	l, rec := mustOpen(t, path)
	if rec.Snapshot != nil || len(rec.Deliveries) != 0 {
		t.Fatalf("fresh log not empty: %+v", rec)
	}
	for i := 1; i <= 5; i++ {
		if err := l.Append(delivery(uint64(i), "op")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := mustOpen(t, path)
	defer l2.Close()
	if rec.Snapshot != nil {
		t.Fatal("unexpected snapshot record")
	}
	if len(rec.Deliveries) != 5 {
		t.Fatalf("replayed %d deliveries, want 5", len(rec.Deliveries))
	}
	for i, m := range rec.Deliveries {
		if m.Seq != uint64(i+1) || string(m.Payload) != "op" || m.View != 3 {
			t.Fatalf("delivery %d corrupted: %+v", i, m)
		}
	}
}

// TestSnapshotCompaction: a snapshot record supersedes everything before it,
// and the rewrite reclaims the file space.
func TestSnapshotCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.wal")
	l, _ := mustOpen(t, path)
	for i := 1; i <= 100; i++ {
		if err := l.Append(delivery(uint64(i), "pre-snapshot-delivery")); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Size()
	if err := l.AppendSnapshot(7, []byte("checkpoint")); err != nil {
		t.Fatal(err)
	}
	if l.Size() >= before {
		t.Fatalf("compaction did not shrink the log: %d -> %d", before, l.Size())
	}
	if l.SinceSnapshot() != 0 {
		t.Fatalf("SinceSnapshot = %d after compaction", l.SinceSnapshot())
	}
	if err := l.Append(delivery(101, "post")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := mustOpen(t, path)
	defer l2.Close()
	if rec.Snapshot == nil || string(rec.Snapshot.Payload) != "checkpoint" || rec.Snapshot.View != 7 {
		t.Fatalf("snapshot record wrong: %+v", rec.Snapshot)
	}
	if len(rec.Deliveries) != 1 || string(rec.Deliveries[0].Payload) != "post" {
		t.Fatalf("post-snapshot deliveries wrong: %+v", rec.Deliveries)
	}
}

// TestTornTailTruncated: a crash mid-write leaves a partial final record; Open
// must recover everything before it and truncate the tail rather than fail.
func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.wal")
	l, _ := mustOpen(t, path)
	for i := 1; i <= 3; i++ {
		if err := l.Append(delivery(uint64(i), "whole")); err != nil {
			t.Fatal(err)
		}
	}
	goodSize := l.Size()
	if err := l.Append(delivery(4, "torn")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the final record: keep its length prefix and half its body.
	tornSize := goodSize + (l.Size()-goodSize)/2
	if err := os.Truncate(path, tornSize); err != nil {
		t.Fatal(err)
	}

	l2, rec := mustOpen(t, path)
	if len(rec.Deliveries) != 3 {
		t.Fatalf("replayed %d deliveries, want the 3 whole ones", len(rec.Deliveries))
	}
	if l2.Size() != goodSize {
		t.Fatalf("torn tail not truncated: size %d, want %d", l2.Size(), goodSize)
	}
	// The log must be appendable after truncation.
	if err := l2.Append(delivery(5, "after")); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec = mustOpen(t, path)
	if len(rec.Deliveries) != 4 || string(rec.Deliveries[3].Payload) != "after" {
		t.Fatalf("append after torn-tail recovery lost: %+v", rec.Deliveries)
	}
}

// TestCorruptLengthPrefix: garbage in the length field must read as a torn
// tail, not an error or a huge allocation.
func TestCorruptLengthPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.wal")
	l, _ := mustOpen(t, path)
	if err := l.Append(delivery(1, "ok")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	l2, rec := mustOpen(t, path)
	defer l2.Close()
	if len(rec.Deliveries) != 1 || string(rec.Deliveries[0].Payload) != "ok" {
		t.Fatalf("good prefix lost behind corrupt length: %+v", rec.Deliveries)
	}
}

func TestResetDiscardsContent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.wal")
	l, _ := mustOpen(t, path)
	if err := l.Append(delivery(1, "stale")); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Fatalf("size %d after reset", l.Size())
	}
	if err := l.Append(delivery(2, "fresh")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, path)
	if len(rec.Deliveries) != 1 || string(rec.Deliveries[0].Payload) != "fresh" {
		t.Fatalf("reset did not discard stale records: %+v", rec.Deliveries)
	}
}

// fileSize returns the log file's size on disk (what has been written, not
// what is buffered).
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestAppendBuffersUntilWritten: Append only encodes; the file is unchanged
// until Flush, Sync or Close writes the batch, and then with one write.
func TestAppendBuffersUntilWritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.wal")
	for _, write := range []struct {
		name string
		fn   func(*Log) error
	}{{"Flush", (*Log).Flush}, {"Sync", (*Log).Sync}, {"Close", (*Log).Close}} {
		l, _ := mustOpen(t, path)
		if err := l.Reset(); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 10; i++ {
			if err := l.Append(delivery(uint64(i), "buffered")); err != nil {
				t.Fatal(err)
			}
		}
		if got := fileSize(t, path); got != 0 {
			t.Fatalf("%s: %d bytes in the file before any write, want 0", write.name, got)
		}
		if err := write.fn(l); err != nil {
			t.Fatal(err)
		}
		if got := fileSize(t, path); got != l.Size() {
			t.Fatalf("%s: file holds %d bytes, the log %d", write.name, got, l.Size())
		}
		if l.Writes() != 1 {
			t.Fatalf("%s: %d writes for one batch, want 1", write.name, l.Writes())
		}
		if write.name != "Close" {
			_ = l.Close()
		}
		_, rec := mustOpen(t, path)
		if len(rec.Deliveries) != 10 {
			t.Fatalf("%s: replayed %d deliveries, want 10", write.name, len(rec.Deliveries))
		}
		for i, m := range rec.Deliveries {
			if m.Seq != uint64(i+1) {
				t.Fatalf("%s: record %d has seq %d: out of order", write.name, i, m.Seq)
			}
		}
	}
}

// TestAppendWritesThroughAtBound: a burst larger than pendingBytes is
// written as it goes, so the buffer never holds much more than the bound,
// and a buffer grown past the retention bound is let go after its write.
func TestAppendWritesThroughAtBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.wal")
	l, _ := mustOpen(t, path)
	defer l.Close()
	payload := string(make([]byte, 1000))
	for i := 1; i <= 200; i++ { // ~200 KB
		if err := l.Append(delivery(uint64(i), payload)); err != nil {
			t.Fatal(err)
		}
		if buffered := l.Size() - fileSize(t, path); buffered >= pendingBytes {
			t.Fatalf("after %d appends %d bytes buffered, want < %d", i, buffered, pendingBytes)
		}
	}
	if l.Writes() < 3 {
		t.Fatalf("%d writes for ~200 KB of appends, want at least 3", l.Writes())
	}
	if err := l.Append(delivery(201, string(make([]byte, 4*pendingBytes)))); err != nil {
		t.Fatal(err)
	}
	if l.buf != nil {
		t.Fatalf("a %d-byte buffer was kept after its write", cap(l.buf))
	}
}

// TestResetDropsBuffer: records buffered before a Reset never reach the
// file, and the log keeps working after it.
func TestResetDropsBuffer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.wal")
	l, _ := mustOpen(t, path)
	if err := l.Append(delivery(1, "stale-buffered")); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(delivery(2, "fresh")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, path)
	if len(rec.Deliveries) != 1 || string(rec.Deliveries[0].Payload) != "fresh" {
		t.Fatalf("reset did not drop the buffered record: %+v", rec.Deliveries)
	}
}

// TestSnapshotWritesBufferFirst: AppendSnapshot writes the buffered records
// to the old file before it compacts, and the compacted log replays as
// before — the snapshot, then what was appended after it.
func TestSnapshotWritesBufferFirst(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.wal")
	l, _ := mustOpen(t, path)
	if err := l.Append(delivery(1, "pre")); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendSnapshot(4, []byte("checkpoint")); err != nil {
		t.Fatal(err)
	}
	if l.Writes() != 1 {
		t.Fatalf("%d writes before the compaction, want the buffer's 1", l.Writes())
	}
	if err := l.Append(delivery(2, "post")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := mustOpen(t, path)
	if rec.Snapshot == nil || string(rec.Snapshot.Payload) != "checkpoint" {
		t.Fatalf("snapshot record wrong: %+v", rec.Snapshot)
	}
	if len(rec.Deliveries) != 1 || string(rec.Deliveries[0].Payload) != "post" {
		t.Fatalf("post-snapshot deliveries wrong: %+v", rec.Deliveries)
	}
}

// TestBackgroundSync: StartSync writes at once and leaves the fsync to one
// goroutine; a second StartSync while it runs starts none and leaves the log
// dirty; Close waits for the goroutine, then fsyncs what it left; and no
// goroutine outlives Close.
func TestBackgroundSync(t *testing.T) {
	release := make(chan struct{})
	var started atomic.Int32
	fsync = func(f *os.File) error {
		started.Add(1)
		<-release
		return f.Sync()
	}
	defer func() { fsync = (*os.File).Sync }()
	base := runtime.NumGoroutine()

	path := filepath.Join(t.TempDir(), "g.wal")
	l, _ := mustOpen(t, path)
	if err := l.Append(delivery(1, "a")); err != nil {
		t.Fatal(err)
	}
	if err := l.StartSync(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got != l.Size() {
		t.Fatalf("StartSync left %d of %d bytes unwritten", l.Size()-got, l.Size())
	}
	if err := l.Append(delivery(2, "b")); err != nil {
		t.Fatal(err)
	}
	if err := l.StartSync(); err != nil { // the first is still in flight
		t.Fatal(err)
	}
	if !l.dirty {
		t.Fatal("a write behind an in-flight fsync was marked synced")
	}
	closed := make(chan error)
	go func() { closed <- l.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while the background fsync was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if n := started.Load(); n != 1 {
		t.Fatalf("%d background fsyncs, want 1 (at most one in flight)", n)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the log", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
	_, rec := mustOpen(t, path)
	if len(rec.Deliveries) != 2 {
		t.Fatalf("replayed %d deliveries, want 2", len(rec.Deliveries))
	}
}
