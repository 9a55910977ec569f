package hbsp

import (
	"math/bits"
	"strconv"
	"strings"

	"hbspk/internal/fabric"
	"hbspk/internal/model"
)

// membership is the membership protocol core both engines drive
// (DESIGN.md §5.2, §5.7): the dead, dormant and joined sets, every
// processor's per-scope acknowledgments and membership view, and the
// rules that keep every live member of a scope at the same per-scope
// sync generation. It is pure — no locks, channels or clocks, and it
// never mutates the tree — so the Concurrent engine calls it under
// crun.mu, the Virtual coordinator calls it directly, and the
// exhaustive checker drives it with no goroutines at all.
//
// Scopes are keyed by machine identity. A reorganization moves leaves
// between slots but never replaces a machine, so a key names the same
// scope for the whole run.
type membership struct {
	tree *model.Tree

	dead     []*failInfo // by pid; nil while alive
	ndead    int
	dormant  []bool // awaiting an activation cut
	ndormant int
	joinStep []int // the chaos plan's activation point, by pid
	joined   []int // activation cut by pid; 0 for starting members
	njoined  int

	views  []view
	scopes map[*model.Machine]*scopeInfo
}

// scopeInfo is a scope's dense id, indexing every view's acks, and its
// member pids in leaf order (rebuilt after a rebalance).
type scopeInfo struct {
	id   int
	pids []int
}

// view is one processor's acknowledged knowledge: per scope id, the dead
// and joined members it has absorbed a notice for, and the processors
// it knows to be active. Sets are values — every update builds a new
// one — so views may share them.
type view struct {
	acks  []acks
	known pidSet
}

type acks struct{ dead, joined pidSet }

// newMembership starts a run's membership: processors with a churn
// JoinAt fate are dormant, every other one is active and knows exactly
// the starting members.
func newMembership(t *model.Tree, chaos *fabric.ChaosPlan) *membership {
	p := t.NProcs()
	m := &membership{
		tree:     t,
		dead:     make([]*failInfo, p),
		dormant:  make([]bool, p),
		joinStep: make([]int, p),
		joined:   make([]int, p),
		views:    make([]view, p),
		scopes:   make(map[*model.Machine]*scopeInfo),
	}
	var start pidSet
	for pid := 0; pid < p; pid++ {
		if js := chaos.JoinStep(pid); js > 0 {
			m.dormant[pid], m.joinStep[pid] = true, js
			m.ndormant++
		} else {
			start = start.with(pid)
		}
	}
	for pid := 0; pid < p; pid++ {
		if !m.dormant[pid] {
			m.views[pid].known = start
		}
	}
	return m
}

func (m *membership) info(s *model.Machine) *scopeInfo {
	si := m.scopes[s]
	if si == nil {
		si = &scopeInfo{id: len(m.scopes)}
		m.scopes[s] = si
	}
	if si.pids == nil {
		leaves := s.Leaves()
		si.pids = make([]int, len(leaves))
		for i, l := range leaves {
			si.pids[i] = m.tree.Pid(l)
		}
	}
	return si
}

// scope returns the pids of the scope's leaves, in leaf order. The
// slice is shared: callers must not modify it.
func (m *membership) scope(s *model.Machine) []int { return m.info(s).pids }

func (m *membership) isDead(pid int) bool    { return m.dead[pid] != nil }
func (m *membership) isDormant(pid int) bool { return m.dormant[pid] }
func (m *membership) live(pid int) bool      { return m.dead[pid] == nil && !m.dormant[pid] }

// quiet reports a run with no death, join or pending activation: every
// per-member check of the protocol is then vacuous.
func (m *membership) quiet() bool { return m.ndead == 0 && m.njoined == 0 && m.ndormant == 0 }

// kill records pid's crash-stop or departure at its sync ordinal step.
// The first record stands: a peer several senders detect as lost dies
// once.
func (m *membership) kill(pid, step int, cause string) {
	if m.dead[pid] != nil {
		return
	}
	m.dead[pid] = &failInfo{step: step, cause: cause}
	m.ndead++
}

// acked returns pid's acknowledgments on the scope with the given id.
func (m *membership) acked(pid, id int) acks {
	if v := m.views[pid].acks; id < len(v) {
		return v[id]
	}
	return acks{}
}

// acksOf is acked for update, growing the view to hold the scope.
func (m *membership) acksOf(pid, id int) *acks {
	v := &m.views[pid]
	for len(v.acks) <= id {
		v.acks = append(v.acks, acks{})
	}
	return &v.acks[id]
}

// notice returns pid's next membership notice on scope s and
// acknowledges it, or nil when pid owes none and may enter the barrier.
// A Sync surfaces at most one notice (DESIGN.md §5.7 rule 1):
//
//   - a death notice names the smallest unacknowledged dead member and
//     acknowledges that one death only. Deaths interleave with barrier
//     entries, so a member that learned of two deaths at once must still
//     burn two generations, like a member that entered between them;
//   - otherwise a join notice names the smallest unacknowledged joiner
//     and acknowledges every joiner of the scope. Joins happen only at
//     global cuts, where every live member is parked, so all members of
//     a scope find the same joined set at the same generation.
//
// The requester counts itself: a newcomer burns its own join notice
// like every other member of its scopes.
func (m *membership) notice(pid int, s *model.Machine) error {
	if m.ndead == 0 && m.njoined == 0 {
		return nil
	}
	si := m.info(s)
	a := m.acked(pid, si.id)
	if first := smallest(si.pids, func(q int) bool { return m.dead[q] != nil && !a.dead.has(q) }); first >= 0 {
		up := m.acksOf(pid, si.id)
		up.dead = up.dead.with(first)
		d := m.dead[first]
		return &ErrPeerFailed{Pid: first, Step: d.step, Cause: d.cause}
	}
	if first := smallest(si.pids, func(q int) bool { return m.joined[q] > 0 && !a.joined.has(q) }); first >= 0 {
		up, v := m.acksOf(pid, si.id), &m.views[pid]
		for _, q := range si.pids {
			if m.joined[q] > 0 {
				up.joined = up.joined.with(q)
				v.known = v.known.with(q)
			}
		}
		return &ErrPeerJoined{Pid: first, Step: m.joined[first]}
	}
	return nil
}

func smallest(pids []int, pick func(int) bool) int {
	first := -1
	for _, q := range pids {
		if pick(q) && (first < 0 || q < first) {
			first = q
		}
	}
	return first
}

// ackedDead reports whether pid has acknowledged q's death on scope s.
func (m *membership) ackedDead(pid int, s *model.Machine, q int) bool {
	return m.acked(pid, m.info(s).id).dead.has(q)
}

// barrier describes the barrier pid enters on scope s once notice has
// returned nil: the live count — members neither dormant nor
// acknowledged dead — and the shrunken identity suffix naming the
// acknowledged dead, so a shrunken barrier never collides with a
// pre-failure one. The failure protocol has every live member ack the
// same dead set at the same generation, so all of them compute the same
// count and suffix.
func (m *membership) barrier(pid int, s *model.Machine) (count int, shrunk string) {
	si := m.info(s)
	if m.ndead == 0 && m.ndormant == 0 {
		return len(si.pids), ""
	}
	a := m.acked(pid, si.id)
	var tag []string
	for _, q := range si.pids {
		switch {
		case m.dormant[q]:
		case a.dead.has(q):
			tag = append(tag, strconv.Itoa(q))
		default:
			count++
		}
	}
	if len(tag) > 0 {
		shrunk = "!" + strings.Join(tag, ",")
	}
	return count, shrunk
}

// hold reports whether a message from pid to dst must stay queued at a
// flush on scope s: dst is dormant, or joined with its notice still
// unacknowledged by the sender on s. The sender's current sync is then
// about to burn that notice generation, which no receiver ever drains;
// the message flushes on the retry, where the whole scope receives.
func (m *membership) hold(pid int, s *model.Machine, dst int) bool {
	return m.dormant[dst] || m.joined[dst] > 0 && !m.acked(pid, m.info(s).id).joined.has(dst)
}

// failed is pid's Failed() view: every death it has acknowledged on any
// scope, ascending.
func (m *membership) failed(pid int) []int {
	var union pidSet
	for _, a := range m.views[pid].acks {
		union = union.or(a.dead)
	}
	return union.pids()
}

// members is pid's Members() view, ascending.
func (m *membership) members(pid int) []int { return m.views[pid].known.pids() }

// due returns the dormant pids whose activation point the global cut
// has reached, ascending.
func (m *membership) due(cut int) []int {
	if m.ndormant == 0 {
		return nil
	}
	var out []int
	for pid, d := range m.dormant {
		if d && m.joinStep[pid] <= cut {
			out = append(out, pid)
		}
	}
	return out
}

// activate brings dormant processors into the run at a global cut.
// Each newcomer knows the old members plus itself and, on every scope
// it belongs to, inherits the acknowledgments of the scope's smallest
// live old member. At a global cut those sets are identical across a
// scope's live members, so the newcomer owes exactly the notices its
// old peers still owe — itself and its batch-mates included — and burns
// the same generations they do. Scopes with no live old member need no
// seeding: their notices race nobody.
func (m *membership) activate(pids []int, cut int) {
	for _, pid := range pids {
		m.dormant[pid] = false
		m.ndormant--
		m.joined[pid] = cut
		m.njoined++
	}
	old := func(q int) bool { return m.live(q) && m.joined[q] != cut }
	for _, pid := range pids {
		v := &m.views[pid]
		v.known = v.known.with(pid)
		for s := m.tree.Leaf(pid); s != nil; s = s.Parent() {
			si := m.info(s)
			donor := smallest(si.pids, old)
			if donor < 0 {
				continue
			}
			if s == m.tree.Root {
				v.known = v.known.or(m.views[donor].known)
			}
			*m.acksOf(pid, si.id) = m.acked(donor, si.id)
		}
	}
}

// rebalanced follows a tree reorganization: scope pid lists are rebuilt
// on demand, and every live processor's per-scope acknowledgments are
// replaced by the union over all live processors (DESIGN.md §5.7 rule
// 3) — a rebalance can move a leaf under a scope whose members
// acknowledged a death or join it only saw elsewhere.
func (m *membership) rebalanced() {
	for _, si := range m.scopes {
		si.pids = nil
	}
	union := make([]acks, len(m.scopes))
	for pid := range m.views {
		if m.live(pid) {
			for id, a := range m.views[pid].acks {
				union[id] = acks{union[id].dead.or(a.dead), union[id].joined.or(a.joined)}
			}
		}
	}
	for pid := range m.views {
		if m.live(pid) {
			for id, u := range union {
				*m.acksOf(pid, id) = u
			}
		}
	}
}

// applier is a cut's single applier: the smallest live processor. Every
// participant of the cut computes the same answer — the dead set cannot
// grow while all live members are parked at the cut.
func (m *membership) applier() int {
	for pid := range m.dead {
		if m.live(pid) {
			return pid
		}
	}
	return -1
}

// anyDead reports whether some dead processor satisfies pred.
func (m *membership) anyDead(pred func(pid int) bool) bool {
	for pid, d := range m.dead {
		if d != nil && pred(pid) {
			return true
		}
	}
	return false
}

// pidSet is a bitset of pids, used as a value: with and or return a
// new set and never write to their receiver.
type pidSet []uint64

func (s pidSet) has(q int) bool { return q>>6 < len(s) && s[q>>6]&(1<<(q&63)) != 0 }

func (s pidSet) with(q int) pidSet {
	out := make(pidSet, max(len(s), q>>6+1))
	copy(out, s)
	out[q>>6] |= 1 << (q & 63)
	return out
}

func (s pidSet) or(o pidSet) pidSet {
	if len(s) < len(o) {
		s, o = o, s
	}
	out := append(pidSet(nil), s...)
	for i, w := range o {
		out[i] |= w
	}
	return out
}

// pids lists the set's members, ascending.
func (s pidSet) pids() []int {
	out := []int{}
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			out = append(out, i<<6+bits.TrailingZeros64(w))
		}
	}
	return out
}
