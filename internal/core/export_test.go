package core

import "repro/internal/types"

// SetMaxLeafSize changes the leaf size bound this member's tree decisions
// use, so a test can make an existing leaf oversized.
func (a *Agent) SetMaxLeafSize(n int) {
	_ = a.stackNode().Call(func() { a.cfg.MaxLeafSize = n })
}

// DecodeCohortCopy decodes a leaf delivery's payload as a coordinator-cohort
// copy, returning the request and its result.
func DecodeCohortCopy(b []byte) (request, result []byte, ok bool) {
	tag, _, payload, ok := decodeLeafCast(b)
	if !ok || tag != tagCohort {
		return nil, nil, false
	}
	return decodeCohortCopy(payload)
}

// IsBroadcastCast reports whether a leaf delivery's payload is a leaf cast
// of a broadcast record.
func IsBroadcastCast(b []byte) bool {
	tag, _, _, ok := decodeLeafCast(b)
	return ok && tag == tagBroadcast
}

// Repair hands the agent a KindTreeCastRepair carrying the record (origin,
// seq, payload), as a member answering a NAK would.
func (a *Agent) Repair(origin types.ProcessID, seq uint64, payload []byte) {
	rec := sealRecord(record{Origin: origin, Seq: seq, Payload: payload})
	_ = a.stackNode().Call(func() {
		a.onTreeCastRepair(&types.Message{Kind: types.KindTreeCastRepair, Group: types.BranchGroup(a.name), Payload: encodeRecord(rec)})
	})
}

// HeldRecords returns the encodings of the records the agent buffers for
// repairs: the tracker's own arrays, not copies.
func (a *Agent) HeldRecords() [][]byte {
	var out [][]byte
	_ = a.stackNode().Call(func() {
		for _, m := range a.trk.Unstable() {
			out = append(out, m.Payload)
		}
	})
	return out
}
