package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/types"
	"repro/internal/wire"
)

// record encodes m as one log record.
func record(m *types.Message) []byte { return appendRecord(nil, m) }

// encodeRecovered is a canonical encoding of recovered content, for
// comparing two replays: the snapshot's view and payload (all a snapshot
// record keeps), then every delivery's wire encoding.
func encodeRecovered(rec Recovered) []byte {
	var out []byte
	if rec.Snapshot != nil {
		out = binary.AppendUvarint(out, uint64(rec.Snapshot.View)+1)
		out = binary.AppendUvarint(out, uint64(len(rec.Snapshot.Payload)))
		out = append(out, rec.Snapshot.Payload...)
	} else {
		out = append(out, 0)
	}
	for _, m := range rec.Deliveries {
		out = wire.AppendMessage(out, m)
	}
	return out
}

// FuzzReplay writes arbitrary bytes as a log file and opens it. Open must
// not panic and fails only on I/O; what it recovers must read back the same
// from the file it truncated, and must re-encode — snapshot, then
// deliveries, through the log's own API — to a file that replays to the
// same records.
func FuzzReplay(f *testing.F) {
	// TestTornTailTruncated's file: three whole records, then a torn one.
	var torn []byte
	for i := 1; i <= 3; i++ {
		torn = append(torn, record(delivery(uint64(i), "whole"))...)
	}
	last := record(delivery(4, "torn"))
	f.Add(append(torn, last[:len(last)/2]...))
	// TestCorruptLengthPrefix's file: one record, then a huge length.
	f.Add(append(record(delivery(1, "ok")), 0xff, 0xff, 0xff, 0xff, 1, 2, 3))
	// A snapshot record followed by a delivery, as after a compaction.
	snap := record(&types.Message{Kind: types.KindStateTransfer, View: 7, Payload: []byte("checkpoint")})
	f.Add(append(snap, record(delivery(8, "post"))...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := Open(path)
		if err != nil {
			t.Fatalf("Open of arbitrary bytes failed: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		want := encodeRecovered(rec)

		l, again, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		_ = l.Close()
		if got := encodeRecovered(again); !bytes.Equal(got, want) {
			t.Fatalf("second Open of the truncated file recovered other records")
		}

		l, _, err = Open(filepath.Join(dir, "re.wal"))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Snapshot != nil {
			if err := l.AppendSnapshot(rec.Snapshot.View, rec.Snapshot.Payload); err != nil {
				t.Fatal(err)
			}
		}
		for _, m := range rec.Deliveries {
			if err := l.Append(m); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, re, err := Open(filepath.Join(dir, "re.wal"))
		if err != nil {
			t.Fatal(err)
		}
		_ = l.Close()
		if got := encodeRecovered(re); !bytes.Equal(got, want) {
			t.Fatalf("re-encoded records replay differently: %d deliveries, want %d",
				len(re.Deliveries), len(rec.Deliveries))
		}
	})
}
