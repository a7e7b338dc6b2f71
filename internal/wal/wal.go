// Package wal is the write-ahead delivery log behind a group's durable
// state: an append-only file of length-prefixed records, each record one
// message in the binary wire codec, so a fully restarted process can rebuild
// its application state from disk — the last checkpoint snapshot followed by
// every delivery applied after it.
//
// The log is deliberately simple:
//
//   - records are [u32 length][wire frame of one message]. A snapshot record
//     is a KindStateTransfer message whose View is the checkpoint's view and
//     whose payload is the application snapshot; a delivery record is a
//     KindCast message carrying the delivered cast's identity, ordering,
//     agreed sequence and payload.
//   - replay takes the LAST snapshot record and the delivery records after
//     it; everything before is garbage awaiting compaction.
//   - compaction is a snapshot rewrite: AppendSnapshot writes a fresh file
//     containing only the snapshot record and renames it over the log, so the
//     log's size is bounded by one checkpoint plus the deliveries since.
//   - writes are group-committed (Hagmann, "Reimplementing the Cedar File
//     System Using Logging and Group Commit", SOSP '87): Append only encodes
//     the record into a user-space buffer, and Flush writes everything
//     buffered with one write(2). The owner flushes at the end of each
//     actor-loop step, so every record a step appended is in the file (the
//     kernel's page cache) before the step returns; a buffer that passes
//     pendingBytes is written through by Append itself.
//   - fsync is batched and leaves the caller: StartSync (driven by the
//     group's recovery tick) writes the buffer and runs the fsync on a
//     short-lived goroutine, at most one in flight per log. Sync and Close
//     write, wait for that goroutine, and fsync on the caller.
//   - the loss window follows: a stopped process loses nothing (a stop is
//     only observed between steps, after the step's write), a killed process
//     the records of the step it was killed in, and a machine crash at most
//     one recovery tick plus one fsync.
//   - a torn tail — the crash happened mid-write — is truncated on Open, not
//     fatal: the lost suffix is exactly what the fsync batching already
//     declared losable.
package wal

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/types"
	"repro/internal/wire"
)

// maxRecordBytes bounds one record so a corrupt length prefix cannot force an
// arbitrarily large allocation.
const maxRecordBytes = wire.MaxFrameBytes

// pendingBytes bounds the user-space buffer of appended records: an Append
// that takes it to this size writes it through at once, and a buffer grown
// past twice this size (a burst or one large record) is released after its
// write rather than kept for the next one.
const pendingBytes = 64 << 10

// fsync is StartSync's background fsync; tests replace it to hold one in
// flight.
var fsync = (*os.File).Sync

// Recovered is the replayable content of an existing log: the most recent
// snapshot record (nil when the log holds none) and the delivery records
// appended after it, in append order.
type Recovered struct {
	Snapshot   *types.Message
	Deliveries []*types.Message
}

// Log is one group's write-ahead delivery log. All methods must be called
// from one goroutine (the owning node's actor goroutine); the only other
// goroutine that touches the log is StartSync's fsync, which owns nothing but
// the file and its result channel.
type Log struct {
	path string
	f    *os.File
	// buf holds the records appended since the last write, encoded.
	buf []byte
	// dirty: written since the last fsync was started.
	dirty bool
	// syncing, when non-nil, receives the in-flight background fsync's
	// result and is then done with.
	syncing chan error
	size    int64
	// sinceSnap is the bytes appended since the last snapshot record; the
	// owner uses it to decide when a compacting rewrite is worth it.
	sinceSnap int64
	writes    uint64
}

// Open opens (creating if necessary) the log at path and replays its
// records. Undecodable or torn trailing records are truncated away; only I/O
// failures are errors.
func Open(path string) (*Log, Recovered, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, Recovered{}, fmt.Errorf("wal: open %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Recovered{}, fmt.Errorf("wal: open %s: %w", path, err)
	}
	rec, good, sinceSnap, err := replay(f)
	if err != nil {
		_ = f.Close()
		return nil, Recovered{}, fmt.Errorf("wal: replay %s: %w", path, err)
	}
	// Drop the torn/corrupt tail (if any) and position at the end.
	if err := f.Truncate(good); err != nil {
		_ = f.Close()
		return nil, Recovered{}, fmt.Errorf("wal: truncate %s: %w", path, err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, Recovered{}, fmt.Errorf("wal: seek %s: %w", path, err)
	}
	return &Log{path: path, f: f, size: good, sinceSnap: sinceSnap}, rec, nil
}

// replay scans the records of f, returning the recovered content, the offset
// of the last well-formed record boundary, and the bytes since the last
// snapshot record.
func replay(f *os.File) (Recovered, int64, int64, error) {
	var rec Recovered
	var good, snapEnd int64
	r, err := f.Seek(0, io.SeekStart)
	if err != nil || r != 0 {
		return rec, 0, 0, err
	}
	var lenBuf [4]byte
	buf := make([]byte, 0, 4096)
	for {
		if _, err := io.ReadFull(f, lenBuf[:]); err != nil {
			break // clean EOF or torn length prefix: stop at the last boundary
		}
		n := binary.BigEndian.Uint32(lenBuf[:])
		if n == 0 || n > maxRecordBytes {
			break // corrupt length: treat like a torn tail
		}
		if cap(buf) < int(n) {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		if _, err := io.ReadFull(f, buf); err != nil {
			break // torn record body
		}
		fr, err := wire.DecodeFrame(buf)
		if err != nil || len(fr.Msgs) != 1 {
			break // undecodable record: stop; the tail is truncated
		}
		m := fr.Msgs[0]
		good += 4 + int64(n)
		switch m.Kind {
		case types.KindStateTransfer:
			rec.Snapshot = m
			rec.Deliveries = rec.Deliveries[:0]
			snapEnd = good
		default:
			rec.Deliveries = append(rec.Deliveries, m)
		}
	}
	return rec, good, good - snapEnd, nil
}

// Append encodes one record into the log's buffer; Flush, Sync and Close
// write it. A buffer that reaches pendingBytes is written at once, so a
// burst buffers at most that plus one record.
func (l *Log) Append(m *types.Message) error {
	start := len(l.buf)
	l.buf = appendRecord(l.buf, m)
	n := len(l.buf) - start
	l.size += int64(n)
	l.sinceSnap += int64(n)
	if len(l.buf) >= pendingBytes {
		return l.Flush()
	}
	return nil
}

// appendRecord appends m's record, [u32 length][wire frame], to dst.
func appendRecord(dst []byte, m *types.Message) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = wire.AppendFrame(dst, []*types.Message{m}, types.ProcessID{}, "")
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// Flush writes every buffered record with one write(2), without an fsync.
// A no-op when nothing is buffered.
func (l *Log) Flush() error {
	if len(l.buf) == 0 {
		return nil
	}
	n, err := l.f.Write(l.buf)
	l.writes++
	if n > 0 {
		l.dirty = true
	}
	if err != nil {
		// What the file did not take is dropped, not retried: a retry
		// after a partial write would tear the record it belongs to.
		lost := int64(len(l.buf) - n)
		l.size -= lost
		l.sinceSnap -= lost
	}
	if cap(l.buf) > 2*pendingBytes {
		l.buf = nil
	} else {
		l.buf = l.buf[:0]
	}
	if err != nil {
		return fmt.Errorf("wal: append %s: %w", l.path, err)
	}
	return nil
}

// Writes returns how many writes of buffered records the log has made.
func (l *Log) Writes() uint64 { return l.writes }

// AppendSnapshot compacts the log: a fresh file holding only the snapshot
// record replaces the current one atomically (write temp + rename), so every
// record before the checkpoint is reclaimed.
func (l *Log) AppendSnapshot(view types.ViewID, data []byte) error {
	// The buffered records go to the old file first, so a compaction that
	// fails loses nothing; the old file's fsync must end before it is closed.
	if err := l.Flush(); err != nil {
		return err
	}
	if err := l.Wait(); err != nil {
		return err
	}
	tmp := l.path + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compact %s: %w", l.path, err)
	}
	m := &types.Message{Kind: types.KindStateTransfer, View: view, Payload: data}
	buf := appendRecord(make([]byte, 0, len(data)+64), m)
	if _, err := tf.Write(buf); err != nil {
		_ = tf.Close()
		return fmt.Errorf("wal: compact %s: %w", l.path, err)
	}
	if err := tf.Sync(); err != nil {
		_ = tf.Close()
		return fmt.Errorf("wal: compact %s: %w", l.path, err)
	}
	if err := tf.Close(); err != nil {
		return fmt.Errorf("wal: compact %s: %w", l.path, err)
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return fmt.Errorf("wal: compact %s: %w", l.path, err)
	}
	nf, err := os.OpenFile(l.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopen %s: %w", l.path, err)
	}
	_ = l.f.Close()
	l.f = nf
	l.size = int64(len(buf))
	l.sinceSnap = 0
	l.dirty = false
	return nil
}

// Reset discards the log's content, buffered records included: a joining
// member's previous-incarnation records are superseded by the state transfer
// about to arrive.
func (l *Log) Reset() error {
	l.buf = l.buf[:0]
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: reset %s: %w", l.path, err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: reset %s: %w", l.path, err)
	}
	l.size, l.sinceSnap, l.dirty = 0, 0, false
	return nil
}

// StartSync writes the buffered records and hands their fsync to a
// short-lived goroutine, returning without waiting for the disk. It starts
// none while the previous one is still running — the log then stays dirty
// until a later call — and none when nothing was written since the last.
// It returns the write's error or a finished background fsync's.
func (l *Log) StartSync() error {
	err := l.Flush()
	if l.syncing != nil {
		select {
		case serr := <-l.syncing:
			l.syncing = nil
			if err == nil {
				err = serr
			}
		default:
			return err
		}
	}
	if !l.dirty {
		return err
	}
	l.dirty = false
	done := make(chan error, 1)
	l.syncing = done
	go func(f *os.File, path string) {
		if err := fsync(f); err != nil {
			done <- fmt.Errorf("wal: sync %s: %w", path, err)
			return
		}
		done <- nil
	}(l.f, l.path)
	return err
}

// Wait waits for the background fsync StartSync left in flight, if any, and
// returns its error.
func (l *Log) Wait() error {
	if l.syncing == nil {
		return nil
	}
	err := <-l.syncing
	l.syncing = nil
	return err
}

// Sync writes the buffered records and forces everything written to stable
// storage, waiting for an in-flight background fsync first. A no-op when
// clean.
func (l *Log) Sync() error {
	err := l.Flush()
	if werr := l.Wait(); err == nil {
		err = werr
	}
	if !l.dirty {
		return err
	}
	l.dirty = false
	if serr := l.f.Sync(); serr != nil && err == nil {
		err = fmt.Errorf("wal: sync %s: %w", l.path, serr)
	}
	return err
}

// SinceSnapshot returns the bytes appended since the last snapshot record —
// the owner's compaction trigger.
func (l *Log) SinceSnapshot() int64 { return l.sinceSnap }

// Size returns the log's current size in bytes.
func (l *Log) Size() int64 { return l.size }

// Close writes, syncs and closes the log file.
func (l *Log) Close() error {
	err := l.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
