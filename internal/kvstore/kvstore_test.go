package kvstore

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/group"
	"repro/internal/types"
	"repro/internal/wal"
)

func apply(s *Store, op byte, nonce uint64, k, v string) {
	s.Apply(group.Delivery{Payload: EncodeOp(op, nonce, k, v)})
}

func TestOpRoundTrip(t *testing.T) {
	b := EncodeOp(OpPut, 42, "color", "blue")
	op, nonce, k, v, ok := DecodeOp(b)
	if !ok || op != OpPut || nonce != 42 || k != "color" || v != "blue" {
		t.Fatalf("round trip: op=%d nonce=%d k=%q v=%q ok=%v", op, nonce, k, v, ok)
	}
	if _, _, _, _, ok := DecodeOp([]byte{99, 0}); ok {
		t.Fatal("foreign payload decoded as op")
	}
	if _, _, _, _, ok := DecodeOp(nil); ok {
		t.Fatal("empty payload decoded as op")
	}
}

func TestApplyPutDelete(t *testing.T) {
	s := New()
	apply(s, OpPut, 1, "a", "1")
	apply(s, OpPut, 2, "b", "2")
	apply(s, OpPut, 3, "a", "3")
	if v, ok := s.Get("a"); !ok || v != "3" {
		t.Fatalf("a = %q, %v", v, ok)
	}
	apply(s, OpDelete, 4, "a", "")
	if _, ok := s.Get("a"); ok {
		t.Fatal("a survived delete")
	}
	if s.Len() != 1 || s.Applied() != 4 {
		t.Fatalf("len=%d applied=%d", s.Len(), s.Applied())
	}
}

func TestWaitSignalledByApply(t *testing.T) {
	s := New()
	ch := s.Wait(7)
	select {
	case <-ch:
		t.Fatal("waiter fired before apply")
	default:
	}
	apply(s, OpPut, 7, "k", "v")
	select {
	case <-ch:
	default:
		t.Fatal("waiter not signalled")
	}
}

// TestDigestOrderIndependent: two replicas applying the same ops in different
// orders (as long as last-writer-per-key agrees) end with equal digests, and
// different contents end with different digests.
func TestDigestOrderIndependent(t *testing.T) {
	a, b := New(), New()
	for i := 0; i < 50; i++ {
		apply(a, OpPut, uint64(i), fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	for i := 49; i >= 0; i-- {
		apply(b, OpPut, uint64(i), fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	if a.Digest() != b.Digest() {
		t.Fatal("equal contents, unequal digests")
	}
	apply(b, OpPut, 1000, "extra", "x")
	if a.Digest() == b.Digest() {
		t.Fatal("unequal contents, equal digests")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := New()
	for i := 0; i < 20; i++ {
		apply(s, OpPut, uint64(i), fmt.Sprintf("key-%02d", i), fmt.Sprintf("val-%d", i*i))
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic: a second snapshot of the same contents is identical.
	snap2, _ := s.Snapshot()
	if string(snap) != string(snap2) {
		t.Fatal("snapshot not deterministic")
	}
	r := New()
	apply(r, OpPut, 999, "junk", "overwritten-by-restore")
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if r.Digest() != s.Digest() {
		t.Fatal("restore did not reproduce contents")
	}
	if _, ok := r.Get("junk"); ok {
		t.Fatal("restore kept pre-existing key")
	}
}

func TestRestoreCorruptSnapshot(t *testing.T) {
	s := New()
	if err := s.Restore([]byte{1, 2}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

// TestOpAllocations pins the put path's allocation budget: EncodeOp builds
// its encoding in one allocation of the exact length, and applying a put of
// an existing key allocates at most the key's copy; the value is a view of
// the payload.
func TestOpAllocations(t *testing.T) {
	value := string(bytes.Repeat([]byte("v"), 512))
	if a := testing.AllocsPerRun(1000, func() { _ = EncodeOp(OpPut, 7, "key-0001", value) }); a != 1 {
		t.Errorf("EncodeOp allocates %.1f objects, want 1", a)
	}
	if b := EncodeOp(OpPut, 7, "key-0001", value); len(b) != cap(b) {
		t.Errorf("EncodeOp returned len %d cap %d, want an exact-length encoding", len(b), cap(b))
	}
	s := New()
	d := group.Delivery{Payload: EncodeOp(OpPut, 7, "key-0001", value)}
	s.Apply(d)
	if a := testing.AllocsPerRun(1000, func() { s.Apply(d) }); a > 1 {
		t.Errorf("Apply of a put allocates %.1f objects, want at most 1 (the key)", a)
	}
	if v, _ := s.Get("key-0001"); v != value {
		t.Fatal("applied value differs from the put's")
	}
}

// TestRestoreAndReplayCopyTheirSource confines payload aliasing to Apply:
// values restored from a snapshot, and values replayed out of a
// write-ahead log, survive the caller overwriting every buffer it handed
// in. The replayed records all have the same length, so a replay that
// decoded every record into one reused read buffer would leave every value
// equal to the last record's.
func TestRestoreAndReplayCopyTheirSource(t *testing.T) {
	src := New()
	for i := 0; i < 8; i++ {
		apply(src, OpPut, uint64(i), fmt.Sprintf("snap-%d", i), fmt.Sprintf("snapshot-value-%d", i))
	}
	snap, _ := src.Snapshot()
	r := New()
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	clear(snap)
	if r.Digest() != src.Digest() {
		t.Fatal("overwriting the snapshot changed the restored values")
	}

	path := filepath.Join(t.TempDir(), "kv.wal")
	l, _, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ = src.Snapshot()
	if err := l.AppendSnapshot(1, snap); err != nil {
		t.Fatal(err)
	}
	clear(snap)
	for i := 0; i < 8; i++ {
		op := EncodeOp(OpPut, uint64(100+i), fmt.Sprintf("wal-%d", i), fmt.Sprintf("logged-value-%d", i))
		if err := l.Append(&types.Message{Kind: types.KindCast, Seq: uint64(i + 1), Payload: op}); err != nil {
			t.Fatal(err)
		}
		clear(op)
		apply(src, OpPut, uint64(100+i), fmt.Sprintf("wal-%d", i), fmt.Sprintf("logged-value-%d", i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, rec, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if rec.Snapshot == nil || len(rec.Deliveries) != 8 {
		t.Fatalf("replay recovered snapshot %v and %d deliveries, want a snapshot and 8", rec.Snapshot != nil, len(rec.Deliveries))
	}
	// The same steps as group recovery: restore the checkpoint, then apply
	// every logged delivery.
	w := New()
	if err := w.Restore(rec.Snapshot.Payload); err != nil {
		t.Fatal(err)
	}
	clear(rec.Snapshot.Payload)
	for _, m := range rec.Deliveries {
		w.Apply(group.Delivery{Seq: m.Seq, Payload: m.Payload})
	}
	if w.Digest() != src.Digest() {
		for i := 0; i < 8; i++ {
			v, _ := w.Get(fmt.Sprintf("wal-%d", i))
			t.Logf("wal-%d = %q", i, v)
		}
		t.Fatal("replayed store differs from the store the log was written from")
	}
}

func BenchmarkEncodeOp(b *testing.B) {
	value := string(bytes.Repeat([]byte("v"), 512))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EncodeOp(OpPut, uint64(i), "key-0001", value)
	}
}

// BenchmarkApplyPut applies 512 B puts over an 8192-key space, the
// benchmark's kv workload shape.
func BenchmarkApplyPut(b *testing.B) {
	value := string(bytes.Repeat([]byte("v"), 512))
	ds := make([]group.Delivery, 8192)
	for i := range ds {
		ds[i].Payload = EncodeOp(OpPut, uint64(i), fmt.Sprintf("key-%011d", i), value)
	}
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Apply(ds[i%len(ds)])
	}
}
