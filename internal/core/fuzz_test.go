package core

import (
	"bytes"
	"testing"

	"repro/internal/types"
)

// The fuzz targets below drive the hierarchy's decoders — every one of them
// reads bytes another process sent (leader-group deliveries, checkpoints,
// leaf reports, placement replies) — with arbitrary input. Each enforces two
// properties: decoding never panics, and anything that decodes re-encodes to
// a canonical form that decodes back to the same value.

// hugeCount is a count field no input can back: preallocating from it
// panicked with "makeslice: cap out of range" before the decoders capped
// their preallocation at the bytes left.
var hugeCount = types.EncodeUint64(nil, 1<<62)

func FuzzDecodeTree(f *testing.F) {
	tr := NewTree("svc", 3)
	tr.AddLeaf(p(1))
	tr.Update(types.LeafGroup("svc", 7), 4, []types.ProcessID{p(2), p(3)})
	f.Add(tr.Encode())
	f.Add(NewTree("svc", 2).Encode())
	head := types.EncodeString(nil, "")
	head = types.EncodeUint64(head, 2)
	head = types.EncodeUint64(head, 0)
	head = types.EncodeUint64(head, 1)
	f.Add(append(head, hugeCount...))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTree(data)
		if err != nil {
			return
		}
		enc := tr.Encode()
		again, err := DecodeTree(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatal("tree round trip is not stable")
		}
	})
}

func FuzzDecodePIDs(f *testing.F) {
	f.Add(encodePIDs(nil, []types.ProcessID{p(1), {Site: 2, Incarnation: 3, Index: 4}}))
	f.Add(encodePIDs(nil, nil))
	f.Add(hugeCount)

	f.Fuzz(func(t *testing.T, data []byte) {
		pids, _, ok := decodePIDs(data)
		if !ok {
			return
		}
		enc := encodePIDs(nil, pids)
		again, rest, ok := decodePIDs(enc)
		if !ok || len(rest) != 0 || !bytes.Equal(encodePIDs(nil, again), enc) {
			t.Fatalf("process list round trip failed: %v -> %v", pids, again)
		}
	})
}

func FuzzDecodeGroupID(f *testing.F) {
	f.Add(encodeGroupID(nil, types.LeafGroup("svc", 1, 2)))
	f.Add(encodeGroupID(nil, types.LeaderGroup("svc")))
	f.Add(append(types.EncodeUint64(types.EncodeString(nil, "svc"), 1), hugeCount...))

	f.Fuzz(func(t *testing.T, data []byte) {
		id, _, ok := decodeGroupID(data)
		if !ok {
			return
		}
		enc := encodeGroupID(nil, id)
		again, rest, ok := decodeGroupID(enc)
		if !ok || len(rest) != 0 || !bytes.Equal(encodeGroupID(nil, again), enc) {
			t.Fatalf("group id round trip failed: %v -> %v", id, again)
		}
	})
}

func FuzzDecodeTreeInput(f *testing.F) {
	f.Add(encodeLeafCast(tagPlace, 7, encodeLeafReport(leafReport{Members: []types.ProcessID{p(3)}})))
	f.Add(encodeLeafCast(tagReport, 8, encodeLeafReport(leafReport{Leaf: types.LeafGroup("svc", 2),
		Members: []types.ProcessID{p(1), p(2)}})))
	f.Add(encodeLeafCast(tagReport, 1, append(types.EncodeUint64(types.EncodeString(nil, "svc"), 1), hugeCount...)))
	f.Add(encodeLeafCast(tagPlace, 1, append(encodeGroupID(nil, types.GroupID{}), hugeCount...)))

	f.Fuzz(func(t *testing.T, data []byte) {
		tag, id, r, ok := decodeTreeInput(data)
		if !ok {
			return
		}
		enc := encodeLeafCast(tag, id, encodeLeafReport(r))
		tag2, id2, r2, ok := decodeTreeInput(enc)
		if !ok || tag2 != tag || id2 != id || !bytes.Equal(encodeLeafCast(tag2, id2, encodeLeafReport(r2)), enc) {
			t.Fatalf("tree input round trip failed: %v %d %+v -> %v %d %+v", tag, id, r, tag2, id2, r2)
		}
	})
}

// The record and leaf-cast decoders read stage frames, leaf deliveries,
// repairs and write-ahead-logged casts. Since a decoded record hands out the
// bytes it arrived in instead of re-encoding (encodeRecord), anything they
// accept must re-encode from its fields to exactly the bytes it came from.

func FuzzDecodeRecord(f *testing.F) {
	f.Add(encodeRecord(record{Origin: types.ProcessID{Site: 1, Incarnation: 2, Index: 3}, Seq: 4, Floor: 3, Payload: []byte("tick")}))
	f.Add(encodeRecord(record{Origin: p(7), Seq: 1}))
	f.Add(hugeCount)

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, ok := decodeRecord(data)
		if !ok {
			return
		}
		if enc := encodeRecord(record{Origin: rec.Origin, Seq: rec.Seq, Floor: rec.Floor, Payload: rec.Payload}); !bytes.Equal(enc, data) {
			t.Fatalf("record %+v re-encodes to %x, arrived as %x", rec, enc, data)
		}
		if !bytes.Equal(encodeRecord(rec), data) {
			t.Fatal("decoded record does not hand out the bytes it arrived in")
		}
	})
}

func FuzzDecodeLeafCast(f *testing.F) {
	rec := encodeRecord(record{Origin: p(1), Seq: 2, Floor: 1, Payload: []byte("bcast")})
	f.Add(encodeLeafCast(tagBroadcast, 9, rec))
	f.Add(encodeLeafCast(tagAppCast, 0, []byte("app")))
	f.Add(encodeLeafCast(tagLeaderUpdate, 0, encodePIDs(nil, []types.ProcessID{p(1), p(2)})))
	f.Add(encodeCohortCopy(11, []byte("quote IBM"), []byte("echo:quote IBM")))
	f.Add(encodeCohortCopy(12, nil, nil))
	f.Add(append([]byte{byte(tagCohort)}, append(types.EncodeUint64(nil, 1), hugeCount...)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		tag, corr, payload, ok := decodeLeafCast(data)
		if !ok {
			return
		}
		if enc := encodeLeafCast(tag, corr, payload); !bytes.Equal(enc, data) {
			t.Fatalf("leaf cast %v %d re-encodes to %x, arrived as %x", tag, corr, enc, data)
		}
		switch tag {
		case tagCohort:
			req, result, ok := decodeCohortCopy(payload)
			if !ok {
				return
			}
			if enc := encodeCohortCopy(corr, req, result); !bytes.Equal(enc, data) {
				t.Fatalf("cohort copy %q -> %q re-encodes to %x, arrived as %x", req, result, enc, data)
			}
		case tagBroadcast:
			rec, ok := decodeRecord(payload)
			if !ok {
				return
			}
			fresh := encodeRecord(record{Origin: rec.Origin, Seq: rec.Seq, Floor: rec.Floor, Payload: rec.Payload})
			if enc := encodeLeafCast(tag, corr, fresh); !bytes.Equal(enc, data) {
				t.Fatalf("broadcast record %+v re-encodes to %x, arrived as %x", rec, enc, data)
			}
		}
	})
}
