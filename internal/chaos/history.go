package chaos

import (
	"hash/fnv"
	"slices"
	"sort"
	"sync"

	"repro/internal/group"
	"repro/internal/member"
	"repro/internal/types"
)

// DeliveryRec is one recorded delivery: everything the invariant checkers
// need, with the payload reduced to a digest.
type DeliveryRec struct {
	View    types.ViewID
	Sender  types.ProcessID
	Seq     uint64 // per-sender sequence within the view
	Agreed  uint64 // agreed ABCAST slot (0 for other orderings)
	VT      []uint64
	Payload uint64 // FNV-64a digest of the payload
}

// History is the recorded observation of one process (one incarnation; a
// restarted slot gets a fresh History): every view it installed and every
// multicast it delivered, per group, in order.
type History struct {
	Proc types.ProcessID

	mu         sync.Mutex
	crashed    bool
	views      map[string][]member.View
	deliveries map[string][]DeliveryRec
}

// NewHistory creates an empty history for one process.
func NewHistory(proc types.ProcessID) *History {
	return &History{
		Proc:       proc,
		views:      make(map[string][]member.View),
		deliveries: make(map[string][]DeliveryRec),
	}
}

// OnView records one installed view. It matches the group.Observer signature
// and runs on the process's actor goroutine.
func (h *History) OnView(gid types.GroupID, v member.View) {
	h.mu.Lock()
	defer h.mu.Unlock()
	k := gid.Key()
	h.views[k] = append(h.views[k], v)
}

// OnDeliver records one delivery. It matches the group.Observer signature
// and runs on the process's actor goroutine.
func (h *History) OnDeliver(gid types.GroupID, d group.Delivery) {
	dig := fnv.New64a()
	_, _ = dig.Write(d.Payload)
	rec := DeliveryRec{
		View:    d.View,
		Sender:  d.ID.Sender,
		Seq:     d.ID.Seq,
		VT:      d.VT, // read-only, so kept as it is
		Payload: dig.Sum64(),
	}
	if d.Ordering == types.Total {
		rec.Agreed = d.Seq
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	k := gid.Key()
	h.deliveries[k] = append(h.deliveries[k], rec)
}

// MarkCrashed tags the history as belonging to a process the scenario
// crashed; checkers exempt crashed members from end-of-run completeness.
func (h *History) MarkCrashed() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.crashed = true
}

// Crashed reports whether the process was crashed by the scenario.
func (h *History) Crashed() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.crashed
}

// Views returns the views installed for a group key, in install order.
func (h *History) Views(gk string) []member.View {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]member.View(nil), h.views[gk]...)
}

// Deliveries returns the deliveries for a group key, in delivery order.
func (h *History) Deliveries(gk string) []DeliveryRec {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]DeliveryRec(nil), h.deliveries[gk]...)
}

// GroupKeys returns every group key this history has observed (views or
// deliveries), sorted. Service scenarios use it to enumerate the hierarchy's
// internal flat groups, whose ids are assigned dynamically.
func (h *History) GroupKeys() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	seen := make(map[string]bool)
	for k := range h.views {
		seen[k] = true
	}
	for k := range h.deliveries {
		seen[k] = true
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Counts returns how many views and deliveries have been recorded.
func (h *History) Counts() (views, deliveries int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, vs := range h.views {
		views += len(vs)
	}
	for _, ds := range h.deliveries {
		deliveries += len(ds)
	}
	return views, deliveries
}

// addEventCounts adds this history's recorded events (views plus
// deliveries) per group key into counts; the runner polls the sums to detect
// quiescence.
func (h *History) addEventCounts(counts map[string]int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for k, vs := range h.views {
		counts[k] += len(vs)
	}
	for k, ds := range h.deliveries {
		counts[k] += len(ds)
	}
}

// recorder owns the histories of every process a run ever spawned, in
// epochs: a full restart re-founds the groups from view 1, so histories from
// either side of it use colliding view numbers and are graded apart.
type recorder struct {
	mu     sync.Mutex
	epochs [][]*History
}

func newRecorder() *recorder { return &recorder{epochs: make([][]*History, 1)} }

func (r *recorder) add(h *History) {
	r.mu.Lock()
	defer r.mu.Unlock()
	last := len(r.epochs) - 1
	r.epochs[last] = append(r.epochs[last], h)
}

// newEpoch starts the epoch later histories join.
func (r *recorder) newEpoch() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.epochs = append(r.epochs, nil)
}

// epoch returns the number of the epoch later histories join.
func (r *recorder) epoch() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.epochs) - 1
}

// byEpoch returns the histories grouped by epoch, oldest first. Epochs only
// grow by appending, so the copied slice headers stay a consistent snapshot.
func (r *recorder) byEpoch() [][]*History {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.epochs)
}

func (r *recorder) histories() []*History {
	var out []*History
	for _, hs := range r.byEpoch() {
		out = append(out, hs...)
	}
	return out
}

// eventCounts sums every history's events per group key.
func (r *recorder) eventCounts() map[string]int {
	counts := make(map[string]int)
	for _, h := range r.histories() {
		h.addEventCounts(counts)
	}
	return counts
}
