package treecast

import (
	"bytes"
	"testing"

	"repro/internal/types"
)

// FuzzDecodeStage drives the stage-plan decoder — it reads every tree-cast
// frame a peer sends — with arbitrary input: decoding never panics, and a
// decoded plan re-encodes to a canonical form that decodes back to itself.
func FuzzDecodeStage(f *testing.F) {
	plan, err := Plan(descriptors(7), 3)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(Encode(plan))
	// A path length no input can back: preallocating from it panicked
	// before the decoder capped its preallocation at the bytes left.
	f.Add(types.EncodeString(types.EncodeUint64(types.EncodeUint64(nil, 1), 1<<62), "svc"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil || s == nil {
			return
		}
		enc := Encode(s)
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if !bytes.Equal(Encode(again), enc) {
			t.Fatal("stage round trip is not stable")
		}
	})
}
