package chaos

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/member"
	"repro/internal/types"
)

// Violation is one invariant breach found by the checkers. Check names the
// invariant; Detail is a human-readable explanation with the concrete ids.
type Violation struct {
	Check  string
	Group  string
	Proc   types.ProcessID
	View   types.ViewID
	Detail string
}

// String renders the violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("[%s] group=%s proc=%v view=%d: %s", v.Check, v.Group, v.Proc, v.View, v.Detail)
}

// maxViolationsPerCheck caps how many violations one checker reports; a
// single root cause tends to cascade, and the first few instances identify
// it.
const maxViolationsPerCheck = 25

// violations collects violations from concurrent reporters, keeping the
// first maxViolationsPerCheck of each check.
type violations struct {
	mu   sync.Mutex
	caps map[string]int
	list []Violation
}

func (c *violations) report(v Violation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.caps == nil {
		c.caps = make(map[string]int)
	}
	if c.caps[v.Check] >= maxViolationsPerCheck {
		return
	}
	c.caps[v.Check]++
	c.list = append(c.list, v)
}

// CheckHistories runs every invariant checker over the recorded histories.
// orderings maps each group key to the ordering its workload used. Every
// scenario — lossy or strict — is graded against the full set of invariants,
// including virtually synchronous set agreement: the stability/NAK/
// retransmit layer (flush forwarding, sequencer failover) is what upgraded
// lossy, crashed-sender and dead-sequencer scenarios from safety-only
// checking to full set agreement.
func CheckHistories(hists []*History, orderings map[string]types.Ordering) []Violation {
	c := &checker{orderings: orderings}
	c.noDupAndPayload(hists)
	c.fifoContiguity(hists)
	c.causalPrecedence(hists)
	c.totalOrder(hists)
	c.viewAgreement(hists)
	c.setAgreement(hists)
	return c.list
}

type checker struct {
	orderings map[string]types.Ordering
	violations
}

type msgKey struct {
	view   types.ViewID
	sender types.ProcessID
	seq    uint64
}

// noDupAndPayload: no member delivers the same (view, sender, seq) twice,
// and every member that delivers a message sees the same payload digest.
func (c *checker) noDupAndPayload(hists []*History) {
	for gk := range c.orderings {
		global := make(map[msgKey]uint64)
		for _, h := range hists {
			seen := make(map[msgKey]bool)
			for _, d := range h.Deliveries(gk) {
				k := msgKey{d.View, d.Sender, d.Seq}
				if seen[k] {
					c.report(Violation{
						Check: "no-duplicates", Group: gk, Proc: h.Proc, View: d.View,
						Detail: fmt.Sprintf("message %v:%d delivered twice", d.Sender, d.Seq),
					})
					continue
				}
				seen[k] = true
				if prev, ok := global[k]; ok {
					if prev != d.Payload {
						c.report(Violation{
							Check: "payload-integrity", Group: gk, Proc: h.Proc, View: d.View,
							Detail: fmt.Sprintf("message %v:%d payload digest %x disagrees with %x seen elsewhere", d.Sender, d.Seq, d.Payload, prev),
						})
					}
				} else {
					global[k] = d.Payload
				}
			}
		}
	}
}

// fifoContiguity: in FBCAST and CBCAST groups, each member delivers every
// sender's view-v messages as the gap-free, in-order prefix 1..k. (ABCAST is
// exempt: its guarantee is the agreed order, and unrecoverable loss at the
// sequencer legitimately skips a sender sequence.)
func (c *checker) fifoContiguity(hists []*History) {
	type vs struct {
		view   types.ViewID
		sender types.ProcessID
	}
	for gk, o := range c.orderings {
		if o != types.FIFO && o != types.Causal {
			continue
		}
		for _, h := range hists {
			next := make(map[vs]uint64)
			for _, d := range h.Deliveries(gk) {
				k := vs{d.View, d.Sender}
				want := next[k] + 1
				if d.Seq != want {
					c.report(Violation{
						Check: "fifo-prefix", Group: gk, Proc: h.Proc, View: d.View,
						Detail: fmt.Sprintf("delivered %v:%d, expected seq %d (gap or reorder)", d.Sender, d.Seq, want),
					})
				}
				if d.Seq > next[k] {
					next[k] = d.Seq
				}
			}
		}
	}
}

// causalPrecedence: in CBCAST groups no member delivers a message after one
// it causally precedes (vector-timestamp comparison, within a view).
func (c *checker) causalPrecedence(hists []*History) {
	const maxPairwise = 600 // O(k²) guard; chaos workloads stay well below
	for gk, o := range c.orderings {
		if o != types.Causal {
			continue
		}
		for _, h := range hists {
			byView := make(map[types.ViewID][]DeliveryRec)
			for _, d := range h.Deliveries(gk) {
				if len(d.VT) > 0 {
					byView[d.View] = append(byView[d.View], d)
				}
			}
			for view, ds := range byView {
				if len(ds) > maxPairwise {
					ds = ds[:maxPairwise]
				}
				for i := 0; i < len(ds); i++ {
					for j := i + 1; j < len(ds); j++ {
						if vtStrictlyBefore(ds[j].VT, ds[i].VT) {
							c.report(Violation{
								Check: "causal-precedence", Group: gk, Proc: h.Proc, View: view,
								Detail: fmt.Sprintf("delivered %v:%d before %v:%d which causally precedes it",
									ds[i].Sender, ds[i].Seq, ds[j].Sender, ds[j].Seq),
							})
						}
					}
				}
			}
		}
	}
}

// vtStrictlyBefore reports a < b pointwise-≤ with at least one strict
// entry, treating missing entries as zero.
func vtStrictlyBefore(a, b []uint64) bool {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	strict := false
	for i := 0; i < n; i++ {
		var av, bv uint64
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		if av > bv {
			return false
		}
		if av < bv {
			strict = true
		}
	}
	return strict
}

// totalOrder: in ABCAST groups each member delivers the contiguous agreed
// prefix 1..k of each view, in order, and any two members agree on which
// message occupies every agreed slot.
//
// Occupancy is compared per the non-uniform (ISIS-style) delivery contract:
// a crashed process's deliveries in the view it crashed in are excluded from
// the cross-member slot map. With sequencer failover, a dying member can
// have delivered a binding the old sequencer announced to it alone; the new
// coordinator — unable to learn a binding no survivor holds — re-announces
// that slot differently, and total order binds the members that remain. The
// crashed member's earlier views (which it survived into a successor) are
// still compared, and all of its deliveries remain subject to the
// per-member prefix, duplicate and payload checks.
func (c *checker) totalOrder(hists []*History) {
	type slot struct {
		view   types.ViewID
		agreed uint64
	}
	type occupant struct {
		sender types.ProcessID
		seq    uint64
	}
	for gk, o := range c.orderings {
		if o != types.Total {
			continue
		}
		global := make(map[slot]occupant)
		for _, h := range hists {
			var finalView types.ViewID
			if h.Crashed() {
				if vs := h.Views(gk); len(vs) > 0 {
					finalView = vs[len(vs)-1].ID
				}
			}
			next := make(map[types.ViewID]uint64)
			for _, d := range h.Deliveries(gk) {
				want := next[d.View] + 1
				if d.Agreed != want {
					c.report(Violation{
						Check: "total-prefix", Group: gk, Proc: h.Proc, View: d.View,
						Detail: fmt.Sprintf("delivered agreed slot %d, expected %d (gap or reorder in the agreed sequence)", d.Agreed, want),
					})
				}
				if d.Agreed > next[d.View] {
					next[d.View] = d.Agreed
				}
				if h.Crashed() && d.View == finalView {
					continue // non-uniform delivery: a crashed member's final view binds nobody
				}
				k := slot{d.View, d.Agreed}
				occ := occupant{d.Sender, d.Seq}
				if prev, ok := global[k]; ok {
					if prev != occ {
						c.report(Violation{
							Check: "total-agreement", Group: gk, Proc: h.Proc, View: d.View,
							Detail: fmt.Sprintf("agreed slot %d holds %v:%d here but %v:%d elsewhere",
								d.Agreed, occ.sender, occ.seq, prev.sender, prev.seq),
						})
					}
				} else {
					global[k] = occ
				}
			}
		}
	}
}

// viewAgreement: any two members that install a (group, view id) install
// identical member lists, and each member's installed view ids strictly
// increase.
func (c *checker) viewAgreement(hists []*History) {
	for gk := range c.orderings {
		global := make(map[types.ViewID]string)
		for _, h := range hists {
			var last types.ViewID
			for i, v := range h.Views(gk) {
				if i > 0 && v.ID <= last {
					c.report(Violation{
						Check: "view-monotonic", Group: gk, Proc: h.Proc, View: v.ID,
						Detail: fmt.Sprintf("installed view %d after view %d", v.ID, last),
					})
				}
				last = v.ID
				enc := membersString(v)
				if prev, ok := global[v.ID]; ok {
					if prev != enc {
						c.report(Violation{
							Check: "view-agreement", Group: gk, Proc: h.Proc, View: v.ID,
							Detail: fmt.Sprintf("membership {%s} disagrees with {%s} installed elsewhere", enc, prev),
						})
					}
				} else {
					global[v.ID] = enc
				}
			}
		}
	}
}

func membersString(v member.View) string {
	parts := make([]string, len(v.Members))
	for i, m := range v.Members {
		parts[i] = m.String()
	}
	return strings.Join(parts, " ")
}

// setAgreement is the virtually-synchronous delivery check: members that
// install view v+1 after view v must have delivered exactly the same set of
// view-v messages — from every sender, crashed senders included. The
// stability/NAK/retransmit layer is what makes this checkable without
// exemptions: flush forwarding re-multicasts a dead sender's unstable casts
// to the survivors, sequencer failover re-announces the agreed order when
// the coordinator dies, and NAK/retransmit recovers casts lost to random
// loss and healed partitions, so lossy scenarios are graded exactly like
// strict ones.
//
// The one remaining boundary condition is the harness's, not the
// protocol's: terminal views (no successor installed anywhere) are compared
// only across members still alive at the end of the run, and skipped when a
// member of the view crashed — the run may have ended mid-view-change,
// before the flush that would have reconciled the survivors.
func (c *checker) setAgreement(hists []*History) {
	for gk := range c.orderings {
		// Index each history's installed views and per-view delivered sets.
		type histView struct {
			h     *History
			views map[types.ViewID]member.View
			sets  map[types.ViewID]map[msgKey]bool
		}
		var idx []histView
		globalViews := make(map[types.ViewID]member.View)
		for _, h := range hists {
			hv := histView{h: h, views: make(map[types.ViewID]member.View), sets: make(map[types.ViewID]map[msgKey]bool)}
			for _, v := range h.Views(gk) {
				hv.views[v.ID] = v
				if _, ok := globalViews[v.ID]; !ok {
					globalViews[v.ID] = v
				}
			}
			for _, d := range h.Deliveries(gk) {
				set := hv.sets[d.View]
				if set == nil {
					set = make(map[msgKey]bool)
					hv.sets[d.View] = set
				}
				set[msgKey{d.View, d.Sender, d.Seq}] = true
			}
			idx = append(idx, hv)
		}

		crashedPID := make(map[types.ProcessID]bool)
		for _, h := range hists {
			if h.Crashed() {
				crashedPID[h.Proc] = true
			}
		}

		for vid, v := range globalViews {
			_, hasSucc := globalViews[vid+1]

			var eligible []histView
			if hasSucc {
				for _, hv := range idx {
					if _, inV := hv.views[vid]; inV {
						if _, inSucc := hv.views[vid+1]; inSucc {
							eligible = append(eligible, hv)
						}
					}
				}
			} else {
				// Terminal view: compare across members alive at run end.
				anyCrashed := false
				for _, m := range v.Members {
					if crashedPID[m] {
						anyCrashed = true
					}
				}
				if anyCrashed {
					continue
				}
				for _, hv := range idx {
					vs := hv.h.Views(gk)
					if len(vs) > 0 && vs[len(vs)-1].ID == vid && !hv.h.Crashed() {
						eligible = append(eligible, hv)
					}
				}
			}
			if len(eligible) < 2 {
				continue
			}

			ref := eligible[0].sets[vid]
			for _, hv := range eligible[1:] {
				got := hv.sets[vid]
				if len(got) == len(ref) {
					same := true
					for k := range ref {
						if !got[k] {
							same = false
							break
						}
					}
					if same {
						continue
					}
				}
				missing, extra := diffSets(ref, got)
				c.report(Violation{
					Check: "virtual-synchrony", Group: gk, Proc: hv.h.Proc, View: vid,
					Detail: fmt.Sprintf("delivered set in view %d disagrees with %v: %s", vid, eligible[0].h.Proc,
						describeDiff(missing, extra)),
				})
			}
		}
	}
}

func diffSets(ref, got map[msgKey]bool) (missing, extra []msgKey) {
	for k := range ref {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if !ref[k] {
			extra = append(extra, k)
		}
	}
	return missing, extra
}

func describeDiff(missing, extra []msgKey) string {
	part := func(label string, ks []msgKey) string {
		if len(ks) == 0 {
			return ""
		}
		ex := ks[0]
		return fmt.Sprintf("%s %d (e.g. %v:%d)", label, len(ks), ex.sender, ex.seq)
	}
	m, e := part("missing", missing), part("extra", extra)
	switch {
	case m != "" && e != "":
		return m + ", " + e
	case m != "":
		return m
	default:
		return e
	}
}
