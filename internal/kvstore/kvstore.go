// Package kvstore is a replicated key-value state machine: the canonical
// stateful workload layered on a virtually synchronous group. Every replica
// applies the same totally ordered (ABCAST) stream of put/delete operations
// to a private map, so all live replicas hold identical state — which the
// chaos harness checks with Digest — and the store doubles as the group's
// StateHandler: its deterministic Snapshot is what joiners restore and what
// the write-ahead log compacts to.
//
// A stored value is a view of the delivered operation's payload rather
// than a copy of it. That is safe because the group freezes a payload once
// it is cast (Group.Cast): the sender, the retransmit buffer and every
// member's delivery share it and none may write it again, and a payload
// decoded off a socket or out of the write-ahead log is freshly allocated
// for its message. Restore and DecodeOp copy what they return, since their
// input belongs to the caller.
package kvstore

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"unsafe"

	"repro/internal/group"
	"repro/internal/types"
)

// Operation codes of the replicated op stream.
const (
	OpPut    byte = 1
	OpDelete byte = 2
)

// EncodeOp encodes one operation: [op][nonce][key][value]. The nonce lets
// the issuing replica recognise its own op coming back through the total
// order (read-your-writes Put). The encoding is built in one allocation of
// its exact length.
func EncodeOp(op byte, nonce uint64, key, value string) []byte {
	b := make([]byte, 0, 1+8+8+len(key)+8+len(value))
	b = append(b, op)
	b = types.EncodeUint64(b, nonce)
	b = types.EncodeString(b, key)
	return types.EncodeString(b, value)
}

// DecodeOp decodes an operation; ok is false for foreign payloads. The key
// and value are copies: b may be rewritten afterwards.
func DecodeOp(b []byte) (op byte, nonce uint64, key, value string, ok bool) {
	op, nonce, k, v, ok := decodeOp(b)
	if !ok {
		return 0, 0, "", "", false
	}
	return op, nonce, string(k), string(v), true
}

// decodeOp splits an operation into views of b.
func decodeOp(b []byte) (op byte, nonce uint64, key, value []byte, ok bool) {
	if len(b) < 1 {
		return 0, 0, nil, nil, false
	}
	op = b[0]
	if op != OpPut && op != OpDelete {
		return 0, 0, nil, nil, false
	}
	nonce, rest, ok := types.DecodeUint64(b[1:])
	if !ok {
		return 0, 0, nil, nil, false
	}
	if key, rest, ok = decodeBytes(rest); !ok {
		return 0, 0, nil, nil, false
	}
	if value, _, ok = decodeBytes(rest); !ok {
		return 0, 0, nil, nil, false
	}
	return op, nonce, key, value, true
}

// decodeBytes is types.DecodeString without the copy.
func decodeBytes(b []byte) (s, rest []byte, ok bool) {
	n, rest, ok := types.DecodeUint64(b)
	if !ok || uint64(len(rest)) < n {
		return nil, b, false
	}
	return rest[:n:n], rest[n:], true
}

// Store is one replica's state. It is safe for concurrent use: Apply runs on
// the group's actor goroutine while reads and waiter registration come from
// application goroutines.
type Store struct {
	mu      sync.Mutex
	data    map[string]string
	applied uint64
	waiters map[uint64]chan struct{}
}

// New creates an empty store.
func New() *Store {
	return &Store{data: make(map[string]string), waiters: make(map[uint64]chan struct{})}
}

// Apply folds one delivered operation into the map. Wire it as the group's
// OnDeliver (or call it from one); it also serves write-ahead-log replay via
// the group.StateApplier interface.
//
// The stored value is a view of d.Payload, not a copy (see the package
// doc): a delivered payload is frozen, and a replayed one is the log's own
// decoded copy. The key is copied, so a payload is kept alive only while
// its value is the key's current binding.
func (s *Store) Apply(d group.Delivery) {
	op, nonce, key, value, ok := decodeOp(d.Payload)
	if !ok {
		return
	}
	s.mu.Lock()
	switch op {
	case OpPut:
		s.data[string(key)] = unsafe.String(unsafe.SliceData(value), len(value))
	case OpDelete:
		delete(s.data, string(key))
	}
	s.applied++
	w := s.waiters[nonce]
	delete(s.waiters, nonce)
	s.mu.Unlock()
	if w != nil {
		close(w)
	}
}

// Wait registers interest in the local application of the op carrying nonce;
// the returned channel closes when Apply sees it. Register before casting the
// op, or the application can race the registration.
func (s *Store) Wait(nonce uint64) <-chan struct{} {
	ch := make(chan struct{})
	s.mu.Lock()
	s.waiters[nonce] = ch
	s.mu.Unlock()
	return ch
}

// Forget drops a waiter whose op was abandoned (context expiry).
func (s *Store) Forget(nonce uint64) {
	s.mu.Lock()
	delete(s.waiters, nonce)
	s.mu.Unlock()
}

// Get returns the value bound to key.
func (s *Store) Get(key string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.data[key]
	return v, ok
}

// Len returns the number of keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// Applied returns the count of operations applied by this replica.
func (s *Store) Applied() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// Digest is an order-independent fingerprint of the current contents: equal
// digests on two replicas mean equal maps (modulo hash collision). The chaos
// harness's convergence checker compares digests at quiesce.
func (s *Store) Digest() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		_, _ = h.Write([]byte(k))
		_, _ = h.Write([]byte{0})
		_, _ = h.Write([]byte(s.data[k]))
		_, _ = h.Write([]byte{1})
	}
	return h.Sum64()
}

// Snapshot encodes the contents deterministically (sorted by key):
// [count][key][value]... — the group checkpoint and WAL snapshot format.
func (s *Store) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b := types.EncodeUint64(nil, uint64(len(keys)))
	for _, k := range keys {
		b = types.EncodeString(b, k)
		b = types.EncodeString(b, s.data[k])
	}
	return b, nil
}

// Restore replaces the contents with a decoded snapshot.
func (s *Store) Restore(b []byte) error {
	n, rest, ok := types.DecodeUint64(b)
	if !ok {
		return fmt.Errorf("kvstore: corrupt snapshot header")
	}
	data := make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		var k, v string
		k, rest, ok = types.DecodeString(rest)
		if !ok {
			return fmt.Errorf("kvstore: corrupt snapshot key %d", i)
		}
		v, rest, ok = types.DecodeString(rest)
		if !ok {
			return fmt.Errorf("kvstore: corrupt snapshot value %d", i)
		}
		data[k] = v
	}
	s.mu.Lock()
	s.data = data
	s.mu.Unlock()
	return nil
}

// Ensure the store satisfies the group's state interfaces.
var (
	_ group.StateHandler = (*Store)(nil)
	_ group.StateApplier = (*Store)(nil)
)
