package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/reliability"
	"repro/internal/treecast"
	"repro/internal/types"
)

// randomPlan builds a plan over n leaves with varied names, paths and contact
// lists, shaped by treecast.Plan.
func randomPlan(t *testing.T, rng *rand.Rand, n int) *treecast.Stage {
	t.Helper()
	leaves := make([]treecast.LeafDescriptor, n)
	for i := range leaves {
		path := make([]uint32, rng.Intn(4))
		for j := range path {
			path[j] = rng.Uint32()
		}
		contacts := make([]types.ProcessID, rng.Intn(4))
		for j := range contacts {
			contacts[j] = types.ProcessID{Site: types.SiteID(rng.Uint32()), Incarnation: rng.Uint32(), Index: rng.Uint32()}
		}
		leaves[i] = treecast.LeafDescriptor{ID: types.LeafGroup(fmt.Sprintf("svc-%d", rng.Intn(1000)), path...), Contacts: contacts}
	}
	plan, err := treecast.Plan(leaves, 2+rng.Intn(6))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// The stage frame's plan, written into the frame's one buffer, must be
// what the receiver's treecast.Decode reads; the whole frame must equal the
// frame the plan's string encoding and the record used to be concatenated
// into.
func TestStageFrameMatchesTreecastEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		plan := randomPlan(t, rng, 1+rng.Intn(40))
		want := treecast.Encode(plan)
		rec := sealRecord(record{Origin: p(uint32(trial)), Seq: uint64(trial + 1), Floor: uint64(trial), Payload: []byte("payload")})
		frame := encodeStageFrame(plan, rec)
		if old := append(types.EncodeString(nil, string(want)), encodeRecord(record{Origin: rec.Origin, Seq: rec.Seq, Floor: rec.Floor, Payload: rec.Payload})...); !bytes.Equal(frame, old) {
			t.Fatalf("trial %d: stage frame differs from the plan string followed by the record", trial)
		}
		gotPlan, gotRec, ok := decodeStageFrame(frame)
		if !ok || !bytes.Equal(treecast.Encode(gotPlan), want) || !bytes.Equal(encodeRecord(gotRec), encodeRecord(rec)) {
			t.Fatalf("trial %d: stage frame does not decode to its plan and record", trial)
		}
	}
}

// A record is encoded once. A sealed record and a decoded one hand out the
// bytes they hold, and the tracker's buffered copy — the KindTreeCastRepair
// payload — is byte for byte a fresh encoding of the record's fields.
func TestRecordEncodedOnce(t *testing.T) {
	fresh := record{Origin: types.ProcessID{Site: 3, Incarnation: 2, Index: 1}, Seq: 9, Floor: 4, Payload: []byte("tick IBM 101")}
	want := encodeRecord(fresh)

	sealed := sealRecord(fresh)
	if !bytes.Equal(sealed.wire, want) || !bytes.Equal(sealed.Payload, fresh.Payload) {
		t.Fatalf("sealed record %x, want %x", sealed.wire, want)
	}
	if &encodeRecord(sealed)[0] != &sealed.wire[0] || &sealed.Payload[0] != &sealed.wire[recordHeader] {
		t.Error("a sealed record re-encodes, or its payload does not alias its encoding")
	}

	frame := encodeLeafCast(tagBroadcast, 5, want)
	_, _, body, _ := decodeLeafCast(frame)
	got, ok := decodeRecord(body)
	if !ok || got.Origin != fresh.Origin || got.Seq != fresh.Seq || got.Floor != fresh.Floor || !bytes.Equal(got.Payload, fresh.Payload) {
		t.Fatalf("decoded %+v, want %+v", got, fresh)
	}
	if &encodeRecord(got)[0] != &body[0] {
		t.Error("a decoded record re-encodes instead of handing out the bytes it arrived in")
	}

	a := &Agent{name: "svc"}
	for _, rec := range []record{sealed, got} {
		m := a.trkMessage(rec)
		if m.Kind != types.KindTreeCastRepair || m.ID != (types.MsgID{Sender: fresh.Origin, Seq: fresh.Seq}) || !bytes.Equal(m.Payload, want) {
			t.Errorf("repair copy %v %v %x, want a KindTreeCastRepair of %x", m.Kind, m.ID, m.Payload, want)
		}
	}
}

// The hierarchy's per-operation encodings allocate once each, and a copy of a
// record the member already holds allocates nothing.
func TestHierarchyEncodingAllocations(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 64)
	fresh := record{Origin: p(1), Seq: 1, Floor: 0, Payload: payload}
	plan := randomPlan(t, rand.New(rand.NewSource(1)), 9)
	sealed := sealRecord(fresh)
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"fresh encodeRecord", func() { _ = encodeRecord(fresh) }},
		{"stage payload", func() { _ = encodeStageFrame(plan, sealed) }},
		{"leaf cast", func() { _ = encodeLeafCast(tagBroadcast, 7, encodeRecord(sealed)) }},
		{"cohort copy", func() { _ = encodeCohortCopy(7, payload, payload) }},
	} {
		if n := testing.AllocsPerRun(100, c.fn); n != 1 {
			t.Errorf("%s: %v allocations, want 1", c.name, n)
		}
	}

	stats := &reliability.Stats{}
	a := &Agent{trk: reliability.NewTracker(p(9), nil, stats), relStats: stats}
	if !a.noteRecord(sealed) {
		t.Fatal("first copy of the record was not fresh")
	}
	if n := testing.AllocsPerRun(100, func() { a.noteRecord(sealed) }); n != 0 {
		t.Errorf("duplicate noteRecord: %v allocations, want 0", n)
	}
	if stats.Duplicates != 101 {
		t.Errorf("duplicates counted %d, want 101", stats.Duplicates)
	}
}
