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
