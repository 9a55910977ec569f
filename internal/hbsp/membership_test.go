package hbsp

import (
	"fmt"
	"math/bits"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"hbspk/internal/fabric"
	"hbspk/internal/model"
)

// TestMembershipExhaustive is the exhaustive small-scope checker for the
// membership core (DESIGN.md §5.7). It models processors running one
// SPMD program — rounds of syncs, a flat tree syncing on the root, a
// 2-level tree on the processor's cluster and then the root — and
// drives the core through every interleaving of sync arrivals with at
// most three crash, leave or join events, a death possible at every
// sync call and an activation at every global cut. Arrivals follow the
// Concurrent engine: a sync enters with the processor's per-scope
// generation, takes the core's notice or parks at the barrier the core
// names, and a death cancels every parked barrier containing the victim
// — the woken waiter asks the core for its notice later, interleaved
// with everything else. A barrier completes when the core's live count
// of processors park under the same identity. At every completed
// barrier the checker asserts that the Virtual engine would release the
// scope at the same moment (every live member parked) and that the
// participants burned the same number of notices on the scope, hold
// identical acknowledgments on it, and see the same Failed and Members
// views. A state where nothing can move while a processor still waits
// is a desync. No goroutines: the search is a memoized depth-first walk
// over the core's state.
func TestMembershipExhaustive(t *testing.T) {
	leaves := func(n int) []*model.Machine {
		out := make([]*model.Machine, n)
		for i := range out {
			out[i] = model.NewLeaf(fmt.Sprintf("p%d", i))
		}
		return out
	}
	flat := func(n int) *model.Tree {
		return model.MustNew(model.NewCluster("root", leaves(n)), 1).Normalize()
	}
	twoLevel := func(sizes ...int) *model.Tree {
		var cs []*model.Machine
		for i, n := range sizes {
			cs = append(cs, model.NewCluster(fmt.Sprintf("c%d", i), leaves(n)))
		}
		return model.MustNew(model.NewCluster("root", cs), 1).Normalize()
	}
	// Five leaves get two events: with three the search passes three
	// million states per tree, past the 30s budget the checker has under
	// -race in check.sh.
	trees := []struct {
		name           string
		tree           *model.Tree
		rounds, events int
	}{
		{"flat3", flat(3), 3, 3},
		{"flat4", flat(4), 3, 3},
		{"flat5", flat(5), 3, 2},
		{"2level-1-2", twoLevel(1, 2), 3, 3},
		{"2level-2-2", twoLevel(2, 2), 2, 3},
		{"2level-2-3", twoLevel(2, 3), 2, 2},
	}
	for _, tc := range trees {
		t.Run(tc.name, func(t *testing.T) {
			w := newChecker(tc.tree, tc.rounds, tc.events)
			p := tc.tree.NProcs()
			// Every dormant set of at most three processors that leaves a
			// starting member; the rest of the event budget goes to deaths
			// and the activation cuts are explored inside the search.
			for mask := 0; mask < 1<<p-1; mask++ {
				if bits.OnesCount(uint(mask)) > w.maxEvents {
					continue
				}
				if err := w.run(mask); err != nil {
					t.Fatalf("dormant set %05b: %v", mask, err)
				}
			}
			t.Logf("%d states", w.states)
		})
	}
}

// Processor states of the checker's model.
const (
	mcRun     byte = iota // about to call Sync
	mcParked              // inside a barrier
	mcWoken               // barrier canceled by a death, notice not yet taken
	mcDone                // program finished
	mcDead                // crashed or left
	mcDormant             // awaiting activation
)

type mcProc struct {
	pc    int // syncs completed, the program counter
	state byte
	gen   [3]int // per-scope sync generation, by scope index
	burns [3]int // notices absorbed per scope
	park  string // barrier identity while parked
	count int    // the core's live count for that barrier
}

type mcState struct {
	procs  []mcProc
	mem    *membership
	gens   [3]int // the generation registry snapshotted at cuts
	roots  int    // completed root barriers
	events int
	trail  *mcNote
}

// mcNote is one step of the path to a state, formatted only when a
// check fails.
type mcNote struct {
	prev   *mcNote
	format string
	args   []any
}

// checker is one tree's search: its scopes (root first, then clusters,
// indexed into the generation arrays), each processor's home cluster,
// and the program's sync pattern per round.
type checker struct {
	tree      *model.Tree
	scopes    []*model.Machine
	home      []int
	pattern   int // syncs per round: 1 (root) or 2 (cluster, root)
	rounds    int
	maxEvents int
	visited   map[string]bool
	states    int
}

func newChecker(t *model.Tree, rounds, maxEvents int) *checker {
	w := &checker{tree: t, rounds: rounds, maxEvents: maxEvents, pattern: 1}
	w.scopes = []*model.Machine{t.Root}
	w.home = make([]int, t.NProcs())
	for _, c := range t.Root.Children {
		if c.IsLeaf() {
			continue
		}
		w.pattern = 2
		w.scopes = append(w.scopes, c)
		for _, l := range c.Leaves() {
			w.home[t.Pid(l)] = len(w.scopes) - 1
		}
	}
	return w
}

// scopeAt is the scope index of pid's sync at program counter pc.
func (w *checker) scopeAt(pid, pc int) int {
	if w.pattern == 2 && pc%2 == 0 {
		return w.home[pid]
	}
	return 0
}

func (w *checker) run(dormant int) error {
	w.visited = make(map[string]bool)
	var joins []int
	p := w.tree.NProcs()
	st := mcState{procs: make([]mcProc, p)}
	for pid := 0; pid < p; pid++ {
		if dormant&(1<<pid) != 0 {
			st.procs[pid].state = mcDormant
			joins = append(joins, pid)
			st.events++
		}
	}
	// The plan only marks the joiners dormant: the search picks their
	// activation cuts itself.
	plan := &fabric.ChaosPlan{}
	for _, pid := range joins {
		plan.Churns = append(plan.Churns, fabric.Churn{Pid: pid, JoinAt: 1})
	}
	st.mem = newMembership(w.tree, plan)
	return w.visit(st)
}

func (w *checker) visit(st mcState) error {
	key := w.key(st)
	if w.visited[key] {
		return nil
	}
	w.visited[key] = true
	w.states++
	// Arrivals and wakes of different processors commute: each touches
	// only its own acknowledgments and reads the dead set, and a barrier
	// completes on its last arrival whatever the order. Only deaths
	// order against them, so once the event budget is spent one
	// canonical order — smallest pid first — reaches every outcome.
	canonical := st.events >= w.maxEvents
	moved := false
	for pid := range st.procs {
		switch st.procs[pid].state {
		case mcRun:
			moved = true
			if err := w.arrive(st, pid, false); err != nil {
				return err
			}
			if !canonical {
				if err := w.arrive(st, pid, true); err != nil {
					return err
				}
			}
		case mcWoken:
			moved = true
			if err := w.wake(st, pid); err != nil {
				return err
			}
		}
		if moved && canonical {
			return nil
		}
	}
	if moved {
		return nil
	}
	for pid, pr := range st.procs {
		if pr.state == mcParked {
			return st.fail("desync: p%d waits at %s forever", pid, pr.park)
		}
	}
	return nil
}

// arrive is pid's next Sync call: a death, a notice, or a park.
func (w *checker) arrive(prev mcState, pid int, die bool) error {
	st := prev.clone()
	pr := &st.procs[pid]
	si := w.scopeAt(pid, pr.pc)
	scope := w.scopes[si]
	gen := pr.gen[si]
	pr.gen[si]++
	if die {
		cause := "crash-stop"
		if pid%2 == 1 {
			// A leave is a death with another cause: the core records
			// the cause and nothing else tells the two apart.
			cause = "leave"
		}
		st.note("p%d %s at %s#%d", pid, cause, scope.Name, gen)
		st.events++
		pr.state = mcDead
		st.mem.kill(pid, pr.pc, cause)
		for q := range st.procs {
			if st.procs[q].state == mcParked && contains(st.mem.scope(w.scopes[w.scopeAt(q, st.procs[q].pc)]), pid) {
				st.procs[q].state = mcWoken
			}
		}
		return w.visit(st)
	}
	if gen+1 > st.gens[si] {
		st.gens[si] = gen + 1
	}
	if notice := st.mem.notice(pid, scope); notice != nil {
		st.note("p%d %s#%d: %v", pid, scope.Name, gen, notice)
		pr.burns[si]++
		return w.visit(st)
	}
	count, shrunk := st.mem.barrier(pid, scope)
	pr.state = mcParked
	pr.park = scope.Name + "#" + strconv.Itoa(gen) + shrunk
	pr.count = count
	st.note("p%d parks at %s/%d", pid, pr.park, count)
	return w.settle(st, pid, si)
}

// wake is a canceled waiter taking its notice.
func (w *checker) wake(prev mcState, pid int) error {
	st := prev.clone()
	pr := &st.procs[pid]
	si := w.scopeAt(pid, pr.pc)
	notice := st.mem.notice(pid, w.scopes[si])
	if notice == nil {
		return st.fail("p%d woken at %s with no notice owed", pid, pr.park)
	}
	st.note("p%d woken at %s: %v", pid, pr.park, notice)
	pr.state = mcRun
	pr.burns[si]++
	return w.visit(st)
}

// settle completes the barrier pid just parked at, if it is full,
// checking both engines' release rules: Virtual releases a scope once
// every live member is parked on it, Concurrent a barrier once the live
// count park under one identity, and the two must coincide.
func (w *checker) settle(st mcState, pid, si int) error {
	scope := w.scopes[si]
	name, count := st.procs[pid].park, st.procs[pid].count
	var live, full []int
	allParked := true
	for _, q := range st.mem.scope(scope) {
		if !st.mem.live(q) {
			continue
		}
		live = append(live, q)
		pr := st.procs[q]
		if pr.state != mcParked || w.scopeAt(q, pr.pc) != si {
			allParked = false
			continue
		}
		if pr.park == name {
			if pr.count != count {
				return st.fail("barrier %s: p%d counts %d, p%d counts %d", name, pid, count, q, pr.count)
			}
			full = append(full, q)
		}
	}
	if len(full) != count {
		if allParked {
			return st.fail("engines disagree on %s: Virtual releases %v, barrier %s waits for %d", scope.Name, live, name, count)
		}
		return w.visit(st)
	}
	if len(full) != len(live) {
		return st.fail("%s completes over %v, live members are %v", name, full, live)
	}
	if err := w.agree(st, si, full); err != nil {
		return err
	}
	st.note("%s completes over %v", name, full)
	for _, q := range full {
		pr := &st.procs[q]
		pr.pc++
		pr.state, pr.park, pr.count = mcRun, "", 0
		if pr.pc == w.rounds*w.pattern {
			pr.state = mcDone
		}
	}
	if si != 0 {
		return w.visit(st)
	}
	st.roots++
	return w.cut(st)
}

// agree asserts the same-generation invariant over a completed
// barrier's participants.
func (w *checker) agree(st mcState, si int, ps []int) error {
	scope := w.scopes[si]
	a0 := st.procs[ps[0]]
	id := st.mem.info(scope).id
	acks0 := st.mem.acked(ps[0], id)
	for _, q := range ps[1:] {
		if st.procs[q].burns[si] != a0.burns[si] {
			return st.fail("%s: p%d burned %d notices, p%d burned %d", scope.Name, ps[0], a0.burns[si], q, st.procs[q].burns[si])
		}
		if !sameAcks(acks0, st.mem.acked(q, id)) {
			return st.fail("%s: p%d and p%d hold different acknowledgments", scope.Name, ps[0], q)
		}
		if f0, f := st.mem.failed(ps[0]), st.mem.failed(q); !reflect.DeepEqual(f0, f) {
			return st.fail("%s: Failed() of p%d is %v, of p%d %v", scope.Name, ps[0], f0, q, f)
		}
		if m0, m := st.mem.members(ps[0]), st.mem.members(q); !reflect.DeepEqual(m0, m) {
			return st.fail("%s: Members() of p%d is %v, of p%d %v", scope.Name, ps[0], m0, q, m)
		}
	}
	return nil
}

// cut explores every subset of the dormant processors activating at
// the global cut that just completed. Joiners start the next round at
// the cut's generation snapshot, inheriting their scopes' notice
// history the way the core inherits acknowledgments; every other live
// processor re-aligns to the snapshot, as the Concurrent cut window
// does.
func (w *checker) cut(st mcState) error {
	if err := w.visit(st); err != nil {
		return err
	}
	if st.roots >= w.rounds {
		return nil
	}
	var dormant []int
	for pid, pr := range st.procs {
		if pr.state == mcDormant {
			dormant = append(dormant, pid)
		}
	}
	for sub := 1; sub < 1<<len(dormant); sub++ {
		next := st.clone()
		var act []int
		for i, pid := range dormant {
			if sub&(1<<i) != 0 {
				act = append(act, pid)
			}
		}
		donors := make([]int, len(w.scopes))
		for si, scope := range w.scopes {
			donors[si] = -1
			for _, q := range next.mem.scope(scope) {
				if next.mem.live(q) && (donors[si] < 0 || q < donors[si]) {
					donors[si] = q
				}
			}
		}
		next.mem.activate(act, st.roots)
		next.note("cut %d activates %v", st.roots, act)
		for pid := range next.procs {
			pr := &next.procs[pid]
			if pr.state == mcDead || pr.state == mcDormant {
				continue
			}
			for si := range w.scopes {
				if next.gens[si] > pr.gen[si] {
					pr.gen[si] = next.gens[si]
				}
			}
		}
		for _, pid := range act {
			pr := &next.procs[pid]
			pr.state, pr.pc, pr.gen = mcRun, st.roots*w.pattern, next.gens
			for si, d := range donors {
				if d >= 0 {
					pr.burns[si] = next.procs[d].burns[si]
				}
			}
		}
		if err := w.visit(next); err != nil {
			return err
		}
	}
	return nil
}

func sameAcks(a, b acks) bool {
	return reflect.DeepEqual(a.dead.pids(), b.dead.pids()) && reflect.DeepEqual(a.joined.pids(), b.joined.pids())
}

func contains(pids []int, pid int) bool {
	for _, q := range pids {
		if q == pid {
			return true
		}
	}
	return false
}

func (st *mcState) note(format string, args ...any) {
	st.trail = &mcNote{prev: st.trail, format: format, args: args}
}

func (st *mcState) fail(format string, args ...any) error {
	var steps []string
	for n := st.trail; n != nil; n = n.prev {
		steps = append([]string{fmt.Sprintf(n.format, n.args...)}, steps...)
	}
	return fmt.Errorf("%s\ntrail:\n  %s", fmt.Sprintf(format, args...), strings.Join(steps, "\n  "))
}

func (st mcState) clone() mcState {
	st.procs = append([]mcProc(nil), st.procs...)
	st.mem = cloneMembership(st.mem)
	return st
}

// cloneMembership copies the core's state so the search can branch.
// Its sets are values and its scope table never changes without a
// reorganization, so both are shared.
func cloneMembership(m *membership) *membership {
	c := *m
	c.dead = append([]*failInfo(nil), m.dead...)
	c.dormant = append([]bool(nil), m.dormant...)
	c.joined = append([]int(nil), m.joined...)
	c.views = append([]view(nil), m.views...)
	for pid := range c.views {
		c.views[pid].acks = append([]acks(nil), m.views[pid].acks...)
	}
	return &c
}

// key encodes everything the search's future depends on: the model's
// processors and registry and the core's sets and acknowledgments. The
// trail is history, not state. Every number is small enough for a byte.
func (w *checker) key(st mcState) string {
	b := make([]byte, 0, 128)
	set := func(s pidSet) byte {
		if len(s) == 0 {
			return 0
		}
		return byte(s[0])
	}
	b = append(b, byte(st.roots), byte(st.events))
	for _, g := range st.gens {
		b = append(b, byte(g))
	}
	for pid, pr := range st.procs {
		b = append(b, '|', byte(pr.pc), pr.state, byte(pr.count), byte(st.mem.joined[pid]))
		for si := range w.scopes {
			b = append(b, byte(pr.gen[si]), byte(pr.burns[si]))
		}
		if st.mem.dead[pid] != nil {
			b = append(b, 'x')
		}
		v := st.mem.views[pid]
		b = append(b, set(v.known))
		for _, a := range v.acks {
			b = append(b, set(a.dead), set(a.joined))
		}
		b = append(b, pr.park...)
	}
	return string(b)
}
