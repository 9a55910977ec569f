package hbsp

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"hbspk/internal/cost"
	"hbspk/internal/fabric"
	"hbspk/internal/model"
	"hbspk/internal/obsv"
	"hbspk/internal/trace"
)

// Virtual executes programs under the HBSP^k cost model on a
// deterministic virtual clock. Processors run as goroutines for
// programming-model fidelity, but every cost — computation,
// communication, synchronization — is charged by the fabric, so two runs
// with the same machine, program, fabric seed and chaos plan produce
// identical reports.
type Virtual struct {
	tree *model.Tree
	fab  *fabric.Fabric

	// MaxSteps, when positive, aborts the run with ErrStepLimit once
	// that many supersteps have completed — a guard against unbounded
	// iteration in user programs (the engine otherwise runs as long as
	// the program does).
	MaxSteps int

	// Chaos, when non-nil, injects the plan's faults: crash-stops at
	// sync boundaries, per-message drop/duplicate/delay, and straggler
	// bursts multiplying charged work. Composable with the fabric's
	// noise model.
	Chaos *fabric.ChaosPlan

	// DetectFactor scales the predicted step cost into the failure
	// detection deadline charged to each survivor when it learns of a
	// dead peer (zero means the default of 3). Repeated detections by
	// the same processor back off exponentially, like a real failure
	// detector widening its timeout.
	DetectFactor float64

	// Ckpt, when non-nil together with a positive CheckpointEvery,
	// commits every processor's Save()d state to the store at every
	// CheckpointEvery-th completed global superstep. Commit cost is
	// charged per Config.CheckpointByte so the analytic predictions
	// stay honest. Rerunning with the same store lets programs resume
	// from the last checkpointed barrier via Restore.
	Ckpt            *CheckpointStore
	CheckpointEvery int

	// Obsv, when non-nil, receives structured spans and metrics for the
	// run: superstep spans carrying the model's predicted T_i alongside
	// the charged time, per-processor barrier waits, sampled message
	// deliveries, and chaos injections. Times are on the virtual clock.
	Obsv *obsv.Recorder

	// Verify arms the happens-before checker (DESIGN.md §5.3): every
	// message carries the sender's vector clock and a payload checksum,
	// barriers join clocks, and a read that is not ordered after its
	// send — or a payload that changed under a reader — surfaces as a
	// typed *ErrNondeterminism. Stamping is charged zero cost.
	Verify bool

	// ReorgEvery, when positive, rebalances the machine tree at every
	// ReorgEvery-th completed global superstep (DESIGN.md §5.7): the
	// engine folds each processor's measured effective compute slowdown
	// into an EWMA estimate and, at the cut, applies the seeded
	// model.PlanReorg — leaves permuted across slots, shares re-derived
	// — in place. The tree is mutated; use Tree.SaveLayout/RestoreLayout
	// (RunSchedules does) to replay from the pristine layout. ReorgSeed
	// drives the plan's tie-breaking; equal seeds give equal schedules.
	ReorgEvery int
	ReorgSeed  int64
	// ReorgAlpha overrides the estimate EWMA smoothing factor (0 means
	// model.DefaultAlpha).
	ReorgAlpha float64

	// Plan, when set, receives the planner callbacks of DESIGN.md §5.9:
	// GlobalBarrier after every completed root-scope barrier (the
	// refinement-commit point) and TreeChanged after a reorg or
	// membership change — both fired from the coordinator while all
	// live processors are parked, so the hook may republish collective
	// selections without desynchronizing an in-flight collective.
	Plan PlanHook

	// inboxes stages delivered messages per pid between the engine's
	// completeStep and the owning processor's pickup after resume; the
	// resume channel orders the handoff. inmetas carries the parallel
	// verification records when Verify is set.
	inboxes [][]Message
	inmetas [][]msgMeta
	// inboxFree recycles spent inbox slices donated back through sync
	// requests, so steady-state staging reuses backings instead of
	// growing fresh ones every superstep.
	inboxFree [][]Message

	// Schedule-exploration state, driven by RunSchedules: permIndex 0
	// replays the canonical (src, seq) delivery order, higher indexes a
	// seeded permutation of each superstep's deliveries. rec, when
	// non-nil, records the run's observable state for fingerprinting.
	permIndex int
	permSeed  int64
	rec       *runRecord
}

// ErrStepLimit reports that a run exceeded the engine's MaxSteps.
var ErrStepLimit = errors.New("hbsp: superstep limit exceeded")

// NewVirtual returns an engine for the tree charging costs via fab,
// which must have been built for the same tree.
func NewVirtual(t *model.Tree, fab *fabric.Fabric) *Virtual {
	return &Virtual{tree: t, fab: fab}
}

// RunVirtual is a convenience wrapper: build a fabric with cfg and run.
func RunVirtual(t *model.Tree, cfg fabric.Config, prog Program) (*trace.Report, error) {
	return NewVirtual(t, fabric.New(t, cfg)).Run(prog)
}

// RunVirtualChaos is RunVirtual under a fault-injection plan.
func RunVirtualChaos(t *model.Tree, cfg fabric.Config, plan *fabric.ChaosPlan, prog Program) (*trace.Report, error) {
	eng := NewVirtual(t, fabric.New(t, cfg))
	eng.Chaos = plan
	return eng.Run(prog)
}

// ErrDesync reports a malformed SPMD program: processors blocked on
// barriers that can never complete, or a processor exiting while others
// still wait on a scope containing it.
var ErrDesync = errors.New("hbsp: processors desynchronized")

type pendingMsg struct {
	src, dst, tag int
	payload       []byte
	seq           int

	// Chaos bookkeeping: fate is computed once, at the first step the
	// message would otherwise deliver; holdUntil parks a delayed
	// message until the given completed-step count.
	fated     bool
	drop, dup bool
	holdUntil int

	// Verification stamp: the sender's vector clock and payload
	// checksum at Send time (Verify mode only).
	stamp VClock
	sum   uint64
}

type vrequest struct {
	pid    int
	kind   byte // 's' sync, 'd' done
	scope  *model.Machine
	label  string
	work   float64
	outbox []pendingMsg
	saves  map[string][]byte
	err    error
	resume chan error

	// ord is the processor's 0-based sync ordinal, stamped by the
	// engine when the request is handled.
	ord int

	// spent donates the requester's previous inbox slice back to the
	// engine. It may be reclaimed only on the success path: a sync that
	// resumes with an error leaves the processor's delivered window
	// readable (fault-tolerant programs re-read Moves after
	// ErrPeerFailed).
	spent []Message
}

// vctx is the per-processor Ctx of the virtual engine.
type vctx struct {
	pid    int
	leaf   *model.Machine
	eng    *Virtual
	reqs   chan<- *vrequest
	resume chan error

	work   float64
	outbox []pendingMsg
	inbox  []Message
	seq    int
	// clock is this processor's virtual time as of its last resume,
	// staged by the engine while the processor is parked (see obsvNow).
	clock float64

	// failedView is the dead-pid set this processor has acknowledged,
	// staged by the engine before each resume; membersView is likewise
	// the active-pid set it knows (its starting membership plus every
	// acknowledged join).
	failedView  []int
	membersView []int
	// ckptStage holds Save()d state until the next Sync ships it.
	ckptStage map[string][]byte

	// Verification state (Verify mode): vc is this processor's vector
	// clock, written by the engine while the processor is parked;
	// inmeta parallels inbox; steps counts completed Syncs.
	vc     VClock
	inmeta []msgMeta
	steps  int
}

func (c *vctx) Pid() int             { return c.pid }
func (c *vctx) NProcs() int          { return c.eng.tree.NProcs() }
func (c *vctx) Tree() *model.Tree    { return c.eng.tree }
func (c *vctx) Self() *model.Machine { return c.leaf }
func (c *vctx) Moves() []Message     { return c.inbox }
func (c *vctx) Charge(ops float64) {
	if ops > 0 {
		c.work += ops * c.leaf.CompSlowdown
	}
}

func (c *vctx) Failed() []int { return append([]int(nil), c.failedView...) }

func (c *vctx) Members() []int { return append([]int(nil), c.membersView...) }

func (c *vctx) Save(key string, data []byte) {
	if c.ckptStage == nil {
		c.ckptStage = make(map[string][]byte)
	}
	c.ckptStage[key] = append([]byte(nil), data...)
}

func (c *vctx) Restore(key string) ([]byte, bool) {
	if c.eng.Ckpt == nil {
		return nil, false
	}
	return c.eng.Ckpt.get(c.pid, key)
}

func (c *vctx) Send(dst, tag int, payload []byte) error {
	if dst < 0 || dst >= c.NProcs() {
		return fmt.Errorf("hbsp: send to pid %d of %d", dst, c.NProcs())
	}
	c.seq++
	m := pendingMsg{src: c.pid, dst: dst, tag: tag, payload: payload, seq: c.seq}
	if c.eng.Verify {
		m.stamp = c.vc.clone()
		m.sum = payloadSum(payload)
	}
	c.outbox = append(c.outbox, m)
	return nil
}

func (c *vctx) Sync(scope *model.Machine, label string) error {
	if scope == nil {
		return errors.New("hbsp: Sync with nil scope")
	}
	if c.eng.Verify {
		// The closing barrier ends this superstep's read window: the
		// delivered payloads must still be the bytes that arrived.
		if nd := recheckWindow(c.pid, c.steps, c.inbox, c.inmeta); nd != nil {
			return nd
		}
	}
	req := &vrequest{
		pid: c.pid, kind: 's', scope: scope, label: label,
		work: c.work, outbox: c.outbox, saves: c.ckptStage, resume: c.resume,
		spent: c.inbox,
	}
	c.work = 0
	c.outbox = nil
	c.ckptStage = nil
	c.reqs <- req
	err := <-c.resume
	if err != nil {
		return err
	}
	c.steps++
	c.inbox, c.inmeta = c.eng.takeInbox(c.pid)
	if c.eng.Verify {
		for i, m := range c.inbox {
			if i >= len(c.inmeta) {
				break
			}
			if nd := checkDelivery(c.pid, c.steps, m, c.inmeta[i], c.vc); nd != nil {
				return nd
			}
		}
	}
	return nil
}

// Run executes the program on every processor and returns the run's
// report. The error is the first processor error, or ErrDesync-wrapped
// diagnostics for malformed synchronization. A chaos-injected
// crash-stop is not itself a run error: if the survivors complete, the
// run completes (their view of the failure arrived as ErrPeerFailed
// from Sync, which a fault-tolerant program may absorb).
func (v *Virtual) Run(prog Program) (*trace.Report, error) {
	p := v.tree.NProcs()
	reqs := make(chan *vrequest)
	ctxs := make([]*vctx, p)
	for pid := 0; pid < p; pid++ {
		ctxs[pid] = &vctx{
			pid:    pid,
			leaf:   v.tree.Leaf(pid),
			eng:    v,
			reqs:   reqs,
			resume: make(chan error, 1),
		}
	}
	v.inboxes = make([][]Message, p)
	v.inmetas = make([][]msgMeta, p)
	if v.Verify {
		for pid := 0; pid < p; pid++ {
			ctxs[pid].vc = newVClock(p)
		}
	}
	// Elastic membership: processors with a churn JoinAt fate start
	// dormant and are activated — their goroutine spawned — at the
	// membership cut after that many completed global supersteps.
	mem := newMembership(v.tree, v.Chaos)
	spawn := func(pid int) {
		go func(c *vctx) {
			var err error
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("hbsp: processor %d panicked: %v", c.pid, r)
				}
				// Work charged after the last sync is a trailing
				// compute-only step: it extends this processor's clock.
				// Saves staged after the last sync still ride along so
				// the run's final state stays observable.
				reqs <- &vrequest{pid: c.pid, kind: 'd', err: err, work: c.work, saves: c.ckptStage}
			}()
			err = prog(c)
		}(ctxs[pid])
	}
	active := 0
	for pid := 0; pid < p; pid++ {
		if mem.live(pid) {
			ctxs[pid].membersView = mem.members(pid)
			spawn(pid)
			active++
		}
	}
	return v.coordinate(reqs, ctxs, mem, spawn, active)
}

// engine-side run state (recreated per Run; Virtual is not reusable
// concurrently but may be reused serially).
type runState struct {
	pending     []*vrequest // by pid, nil = running
	parked      int         // non-nil entries of pending
	done        []bool
	clocks      []float64
	undelivered []pendingMsg
	steps       []trace.Step
	firstErr    error

	// mem is the run's membership protocol core: dead, dormant and
	// joined processors and every processor's acknowledgments.
	mem *membership

	// Fault-tolerance state: syncOrd counts each processor's Sync
	// calls; detectCount drives the detection-deadline backoff; staged
	// holds per-pid checkpoint saves awaiting a commit boundary;
	// globalSteps counts completed root-scope supersteps (the checkpoint
	// cadence).
	syncOrd     []int
	detectCount []int
	staged      []map[string][]byte
	globalSteps int
	spawn       func(pid int)

	// Reorganization state: rer folds measured per-step effective
	// compute slowdowns; epoch counts applied reorganizations. reqs is
	// the coordinator's request channel, threaded here so a reorg cut
	// can drain the exit requests of still-unwinding dead processors
	// before mutating the tree (quiesceDead).
	rer   *model.Reranker
	epoch int
	reqs  chan *vrequest

	// planDead tracks the dead-set size last reported to the PlanHook,
	// so a death between two global barriers surfaces as exactly one
	// TreeChanged (membership-epoch invalidation).
	planDead int

	// running counts live goroutines; activation at a membership cut
	// increments it.
	running int

	// stepSum/stepN track each processor's mean completed step time,
	// the cost model's prediction base for detection deadlines. Per
	// processor, not global: a pid's step sequence is its program
	// order, so the charge does not depend on the order in which
	// sibling scopes complete.
	stepSum []float64
	stepN   []int
}

func (st *runState) park(r *vrequest) {
	st.pending[r.pid] = r
	st.parked++
}

func (st *runState) unpark(pid int) *vrequest {
	r := st.pending[pid]
	st.pending[pid] = nil
	st.parked--
	return r
}

// recycleSpent reclaims a resumed processor's donated inbox slice for
// the staging free list, zeroing the vacated slots so no payload stays
// reachable. Only the success path calls it: a sync resumed with an
// error keeps its delivered window readable.
func (v *Virtual) recycleSpent(r *vrequest) {
	if r == nil || r.spent == nil {
		return
	}
	s := r.spent
	r.spent = nil
	for i := range s {
		s[i] = Message{}
	}
	v.inboxFree = append(v.inboxFree, s[:0])
}

// inboxes staged for pickup by vctx.Sync after resume.
func (v *Virtual) takeInbox(pid int) ([]Message, []msgMeta) {
	in, meta := v.inboxes[pid], v.inmetas[pid]
	v.inboxes[pid] = nil
	v.inmetas[pid] = nil
	return in, meta
}

// coordinate runs the engine in rounds. A round is one request from
// every processor not parked at a barrier; it is applied in pid order
// (handleRound), so what a processor observes never depends on the
// order goroutines happened to reach the coordinator.
func (v *Virtual) coordinate(reqs chan *vrequest, ctxs []*vctx, mem *membership, spawn func(int), active int) (*trace.Report, error) {
	p := v.tree.NProcs()
	st := &runState{
		pending:     make([]*vrequest, p),
		done:        make([]bool, p),
		clocks:      make([]float64, p),
		mem:         mem,
		syncOrd:     make([]int, p),
		detectCount: make([]int, p),
		staged:      make([]map[string][]byte, p),
		stepSum:     make([]float64, p),
		stepN:       make([]int, p),
		spawn:       spawn,
		rer:         model.NewReranker(p, v.ReorgAlpha),
		reqs:        reqs,
		running:     active,
	}
	var round []*vrequest
	for st.running > 0 {
		round = round[:0]
		for st.parked+len(round) < st.running {
			round = append(round, <-reqs)
		}
		v.handleRound(st, ctxs, round)
		if st.firstErr == nil {
			v.release(st, ctxs)
		}
		if v.MaxSteps > 0 && len(st.steps) >= v.MaxSteps && st.firstErr == nil {
			st.firstErr = fmt.Errorf("%w: %d supersteps completed", ErrStepLimit, len(st.steps))
		}
		// Deadlock / desync detection: every live processor is blocked
		// in a sync and nothing released.
		if st.firstErr == nil && st.parked > 0 && st.parked == st.running {
			st.firstErr = v.desyncError(st)
		}
		// On error, unblock every parked processor; handleRound fails
		// any later sync straight away.
		if st.firstErr != nil {
			for pid, r := range st.pending {
				if r != nil {
					st.unpark(pid).resume <- st.firstErr
				}
			}
		}
	}
	total := 0.0
	for _, c := range st.clocks {
		if c > total {
			total = c
		}
	}
	rep := &trace.Report{Steps: st.steps, Total: total}
	return rep, st.firstErr
}

// handleRound applies one round of requests in pid order: exits and
// every crash and leave the round's syncs trigger first, and only then
// the notice-or-park decision for each sync — parked ones included
// when a processor died, since their barrier lost a member. Same-round deaths
// thus reach every survivor in the same order, smallest pid first, as
// one notice per Sync. Once the run has failed (an error or the step
// limit), a sync resumes with that error instead of parking, so no
// further superstep completes.
func (v *Virtual) handleRound(st *runState, ctxs []*vctx, round []*vrequest) {
	sort.Slice(round, func(a, b int) bool { return round[a].pid < round[b].pid })
	deaths := false
	arrivals := round[:0]
	for _, r := range round {
		if r.kind == 'd' {
			v.handleDone(st, r)
			continue
		}
		pid := r.pid
		r.ord = st.syncOrd[pid]
		st.syncOrd[pid]++
		// Checkpoint saves ride every sync request, even one about to
		// fail: they are program state, not step data.
		v.stageSaves(st, pid, r.saves)
		switch {
		case st.firstErr != nil:
			r.resume <- st.firstErr
		case st.mem.isDead(pid):
			// A dead processor's program swallowed the crash error and
			// synced again; it stays dead.
			r.resume <- fmt.Errorf("%w (p%d)", errCrashStop, pid)
		case v.Chaos.CrashNow(pid, r.ord, st.clocks[pid]):
			v.crash(st, r, "crash-stop")
			deaths = true
		case v.Chaos.LeaveNow(pid, r.ord):
			v.crash(st, r, "leave")
			deaths = true
		default:
			arrivals = append(arrivals, r)
		}
	}
	if deaths {
		for pid, r := range st.pending {
			if r != nil && v.notify(st, ctxs, r) {
				st.unpark(pid)
			}
		}
	}
	for _, r := range arrivals {
		if !v.notify(st, ctxs, r) {
			st.park(r)
		}
	}
}

// handleDone records one processor goroutine's exit: its program
// returned (normally, with an error, or unwinding a crash/leave).
func (v *Virtual) handleDone(st *runState, req *vrequest) {
	st.done[req.pid] = true
	st.clocks[req.pid] += req.work
	v.stageSaves(st, req.pid, req.saves)
	st.running--
	if req.err != nil && st.firstErr == nil &&
		!errors.Is(req.err, errCrashStop) && !errors.Is(req.err, errLeave) {
		st.firstErr = req.err
	}
}

// quiesceDead blocks until every dead processor's goroutine has exited,
// serving its remaining requests meanwhile. A crash victim is resumed
// with its error and then unwinds user code — code that may read the
// tree (fault-tolerant collectives walk scope leaves to report their
// live view) — so the coordinator must not rebalance the tree while a
// corpse is still running. Safe to block here: at a completed global
// barrier every live processor is parked, so the only goroutines able
// to send requests are the unwinding dead, and their syncs resolve
// immediately (a dead requester never parks).
func (v *Virtual) quiesceDead(st *runState, ctxs []*vctx) {
	for st.mem.anyDead(func(pid int) bool { return !st.done[pid] }) {
		v.handleRound(st, ctxs, []*vrequest{<-st.reqs})
	}
}

// notify hands a syncing processor its next membership notice on the
// scope it syncs on, if the core holds one for it: the staged view
// refreshes, a death charges the detection deadline to its clock, and
// the sync resumes with the typed error. It reports whether a notice
// was delivered. A join carries no detection charge: it is planned at
// the cut, not detected by a deadline.
func (v *Virtual) notify(st *runState, ctxs []*vctx, r *vrequest) bool {
	notice := st.mem.notice(r.pid, r.scope)
	switch notice.(type) {
	case nil:
		return false
	case *ErrPeerFailed:
		st.clocks[r.pid] += v.detectCharge(st, r.pid, r.scope)
		ctxs[r.pid].clock = st.clocks[r.pid]
		ctxs[r.pid].failedView = st.mem.failed(r.pid)
	case *ErrPeerJoined:
		ctxs[r.pid].membersView = st.mem.members(r.pid)
	}
	r.resume <- notice
	return true
}

// stageSaves folds one processor's Save()d state into the run's staging
// area (awaiting a checkpoint commit boundary) and, when a schedule
// recorder is attached, into the run's observable final state.
func (v *Virtual) stageSaves(st *runState, pid int, saves map[string][]byte) {
	if len(saves) == 0 {
		return
	}
	if st.staged[pid] == nil {
		st.staged[pid] = make(map[string][]byte)
	}
	for k, b := range saves {
		st.staged[pid][k] = b
	}
	if v.rec != nil {
		v.rec.noteSaves(pid, saves)
	}
}

// crash marks the requester dead, discards its outbox (crash-stop loses
// the superstep in progress) and purges messages addressed to it; the
// round then notifies every survivor whose scope contains it. An
// orderly leave (cause "leave") rides the same machinery: the departure
// is announced at the boundary and survivors shrink their barriers
// exactly as for a crash, but the victim unwinds with errLeave and the
// cause distinguishes churn from failure in every report.
func (v *Virtual) crash(st *runState, req *vrequest, cause string) {
	pid := req.pid
	victimErr := errCrashStop
	fate := "crash"
	if cause == "leave" {
		victimErr, fate = errLeave, "leave"
	}
	v.Obsv.Chaos(fate, req.ord, pid, pid, st.clocks[pid])
	st.mem.kill(pid, req.ord, cause)
	req.resume <- fmt.Errorf("%w (p%d at step %d)", victimErr, pid, req.ord)

	rest := st.undelivered[:0]
	for _, m := range st.undelivered {
		if m.dst != pid {
			rest = append(rest, m)
		}
	}
	st.undelivered = rest
}

// membershipCut activates every dormant processor whose JoinAt point
// has been reached: the core seeds its views, its clock starts at the
// cut's virtual time, and its goroutine spawns. From the next sync on,
// every member of every scope containing it — the newcomer included —
// burns one notice generation (ErrPeerJoined) per scope, which
// re-aligns barrier generations without renumbering.
func (v *Virtual) membershipCut(st *runState, ctxs []*vctx, now float64) {
	act := st.mem.due(st.globalSteps)
	st.mem.activate(act, st.globalSteps)
	for _, pid := range act {
		ctxs[pid].membersView = st.mem.members(pid)
		ctxs[pid].failedView = st.mem.failed(pid)
		st.clocks[pid] = now
		ctxs[pid].clock = now
		v.Obsv.Chaos("join", st.globalSteps, pid, pid, now)
		st.spawn(pid)
		st.running++
	}
}

// detectCharge is the failure-detection deadline on the virtual clock:
// DetectFactor × the predicted step cost (mean completed step time,
// falling back to the scope's L), doubling per successive detection by
// the same processor — the detector's backoff.
func (v *Virtual) detectCharge(st *runState, pid int, scope *model.Machine) float64 {
	factor := v.DetectFactor
	if factor <= 0 {
		factor = defaultDetectFactor
	}
	predicted := 0.0
	if st.stepN[pid] > 0 {
		predicted = st.stepSum[pid] / float64(st.stepN[pid])
	}
	if predicted < scope.SyncCost {
		predicted = scope.SyncCost
	}
	if predicted <= 0 {
		predicted = 1
	}
	backoff := uint(st.detectCount[pid])
	if backoff > 6 {
		backoff = 6
	}
	st.detectCount[pid]++
	return factor * predicted * float64(int(1)<<backoff)
}

func (v *Virtual) desyncError(st *runState) error {
	var parts []string
	for pid, r := range st.pending {
		if r != nil {
			parts = append(parts, fmt.Sprintf("p%d@%s(%s)", pid, r.scope.Label(), r.label))
		}
	}
	for pid, d := range st.done {
		if d {
			parts = append(parts, fmt.Sprintf("p%d:exited", pid))
		}
	}
	return fmt.Errorf("%w: %s", ErrDesync, strings.Join(parts, " "))
}

// release completes every scope whose entire live leaf set is pending
// on it. Dead processors are excluded: a processor only parks on a
// scope once it has acknowledged every dead member of it.
func (v *Virtual) release(st *runState, ctxs []*vctx) {
	seen := map[*model.Machine]bool{}
	for pid := range st.pending {
		r := st.pending[pid]
		if r == nil || seen[r.scope] {
			continue
		}
		seen[r.scope] = true
		ready := true
		live := 0
		for _, q := range st.mem.scope(r.scope) {
			if !st.mem.live(q) {
				continue
			}
			live++
			if w := st.pending[q]; w == nil || w.scope != r.scope {
				ready = false
				break
			}
		}
		if ready && live > 0 {
			v.completeStep(st, ctxs, r.scope)
		}
	}
}

// completeStep charges and finishes one super^i-step over the scope's
// live participants.
func (v *Virtual) completeStep(st *runState, ctxs []*vctx, scope *model.Machine) {
	members := st.mem.scope(scope)
	var pids []int
	inScope := make(map[int]bool, len(members))
	for _, q := range members {
		inScope[q] = true
		if st.mem.live(q) {
			pids = append(pids, q)
		}
	}
	sort.Ints(pids)

	start := 0.0
	works := make(map[int]float64, len(pids))
	label := ""
	var outbox []pendingMsg
	for _, pid := range pids {
		r := st.pending[pid]
		if st.clocks[pid] > start {
			start = st.clocks[pid]
		}
		slow := v.Chaos.Slowdown(pid, r.ord)
		if slow != 1 {
			v.Obsv.Chaos("straggler", len(st.steps), pid, pid, st.clocks[pid])
		}
		works[pid] = r.work * slow
		if r.work > 0 {
			// Measured effective compute slowdown for the step: the
			// static slowdown times the transient straggler factor, the
			// reorganization subsystem's EWMA sample. Only observed on
			// the success path (a failed sync's work is dropped), which
			// is the same rule the concurrent engine applies — equal
			// seeds produce equal estimate streams on both engines.
			st.rer.Observe(pid, ctxs[pid].leaf.CompSlowdown*slow)
		}
		if label == "" {
			label = r.label
		}
		outbox = append(outbox, r.outbox...)
	}
	st.undelivered = append(st.undelivered, outbox...)

	// Every participant of a completing step resumes successfully, so
	// its previous inbox slice can be reclaimed for this step's staging.
	for _, pid := range pids {
		v.recycleSpent(st.pending[pid])
	}

	// Deliverable: both endpoints inside the scope, destination alive,
	// and any chaos delay expired. Fates are assigned at the first step
	// a message could deliver, so a delayed message is parked exactly
	// once.
	stepIdx := len(st.steps)
	var deliver []pendingMsg
	rest := st.undelivered[:0]
	for _, m := range st.undelivered {
		if !inScope[m.src] || !inScope[m.dst] {
			rest = append(rest, m)
			continue
		}
		if st.mem.isDormant(m.dst) {
			rest = append(rest, m) // not yet joined: hold until activation
			continue
		}
		if st.mem.isDead(m.dst) {
			continue // addressed to a corpse: drop
		}
		if !m.fated {
			f := v.Chaos.MessageFate(m.src, m.dst, m.seq)
			m.fated, m.drop, m.dup = true, f.Drop, f.Duplicate
			if f.Delay > 0 {
				m.holdUntil = stepIdx + f.Delay
			}
			switch {
			case f.Drop:
				v.Obsv.Chaos("drop", stepIdx, m.src, m.dst, start)
			case f.Duplicate:
				v.Obsv.Chaos("duplicate", stepIdx, m.src, m.dst, start)
			case f.Delay > 0:
				v.Obsv.Chaos("delay", stepIdx, m.src, m.dst, start)
			}
		}
		if m.holdUntil > stepIdx {
			rest = append(rest, m)
			continue
		}
		deliver = append(deliver, m)
	}
	st.undelivered = rest

	// Dropped messages still consumed bandwidth; duplicates consume it
	// twice.
	var flows []cost.Flow
	for _, m := range deliver {
		flows = append(flows, cost.Flow{Src: m.src, Dst: m.dst, Bytes: len(m.payload)})
		if m.dup {
			flows = append(flows, cost.Flow{Src: m.src, Dst: m.dst, Bytes: len(m.payload)})
		}
	}
	res := v.fab.StepCost(scope, label, flows, works)
	end := start + res.Time
	for _, pid := range pids {
		st.stepSum[pid] += res.Time
		st.stepN[pid]++
	}

	if v.Obsv != nil {
		// Predicted T_i(λ) = w_i + g·h + L_{i,j} from the pure model;
		// the measured span (end - start) additionally carries configured
		// overheads, noise, and barrier-entry skew.
		pred := res.W + v.tree.G*res.H + res.Sync
		v.Obsv.Superstep(stepIdx, label, scope.Label(), scope.Level, start, end, pred, int64(res.Bytes))
		v.Obsv.HRelation(res.H)
		for _, pid := range pids {
			// st.clocks[pid] still holds the barrier-entry time; clocks
			// advance to end only when the step resumes below.
			v.Obsv.BarrierWait(stepIdx, pid, scope.Label(), scope.Level, st.clocks[pid], end)
		}
	}

	// Stage inboxes in sender/seq order — except under schedule
	// exploration, where permutation index > 0 replaces the canonical
	// order with a seeded shuffle (deliberately weaker than the model's
	// sorted-delivery guarantee, to surface order-dependent programs).
	if v.permIndex > 0 {
		shuffleDeliver(deliver, v.permSeed, v.permIndex, stepIdx)
	} else {
		sort.SliceStable(deliver, func(a, b int) bool {
			if deliver[a].src != deliver[b].src {
				return deliver[a].src < deliver[b].src
			}
			return deliver[a].seq < deliver[b].seq
		})
	}

	// Barrier edges for the happens-before checker: every participant's
	// post-barrier clock is the join of all participants' clocks, plus
	// its own local event.
	if v.Verify {
		merged := newVClock(len(ctxs))
		for _, pid := range pids {
			merged.join(ctxs[pid].vc)
		}
		for _, pid := range pids {
			vc := merged.clone()
			vc.tick(pid)
			ctxs[pid].vc = vc
		}
	}

	for _, m := range deliver {
		if m.drop {
			continue
		}
		copies := 1
		if m.dup {
			copies = 2
		}
		for i := 0; i < copies; i++ {
			if v.inboxes[m.dst] == nil {
				if n := len(v.inboxFree); n > 0 {
					v.inboxes[m.dst] = v.inboxFree[n-1]
					v.inboxFree = v.inboxFree[:n-1]
				}
			}
			v.Obsv.Delivery(stepIdx, m.src, m.dst, m.tag, int64(len(m.payload)), end)
			v.inboxes[m.dst] = append(v.inboxes[m.dst], Message{Src: m.src, Tag: m.tag, Payload: m.payload})
			if v.Verify {
				v.inmetas[m.dst] = append(v.inmetas[m.dst],
					msgMeta{src: m.src, tag: m.tag, stamp: m.stamp, sum: m.sum})
			}
			if v.rec != nil {
				v.rec.noteDelivery(m.dst, deliveryRec{
					step: stepIdx, src: m.src, tag: m.tag, n: len(m.payload), sum: payloadSum(m.payload),
				})
			}
		}
	}

	// Checkpoint commit at the global cadence: registered state of
	// every live participant is snapshotted, and the per-byte cost
	// lands on each processor's clock past the step's end.
	ckptMax := 0.0
	ckptCost := make(map[int]float64, len(pids))
	if scope == v.tree.Root {
		st.globalSteps++
		if v.Ckpt != nil && v.CheckpointEvery > 0 && st.globalSteps%v.CheckpointEvery == 0 {
			perByte := v.fab.Config().CheckpointByte
			for _, pid := range pids {
				n := v.Ckpt.commit(pid, st.globalSteps, st.staged[pid])
				st.staged[pid] = nil
				c := perByte * float64(n) * v.tree.Leaf(pid).CompSlowdown
				ckptCost[pid] = c
				if c > ckptMax {
					ckptMax = c
				}
			}
		}
		// The completed global barrier is the run's consistent cut: all
		// live processors are parked right here, so the tree can be
		// rebalanced and membership can grow with no program in flight.
		// Reorg strictly precedes activation — a spawned newcomer starts
		// reading the tree immediately, so nothing may mutate it after
		// its goroutine exists. (The dormant leaf was in the tree all
		// along; the plan covers it either way.)
		var planOldFP uint64
		planReorged := false
		if v.Plan != nil {
			planOldFP = v.tree.Fingerprint()
		}
		if v.ReorgEvery > 0 && st.globalSteps%v.ReorgEvery == 0 {
			// Crash victims resumed with their error may still be unwinding
			// user code that reads the tree; wait them out before mutating.
			v.quiesceDead(st, ctxs)
			st.epoch++
			plan := model.PlanReorg(v.tree, st.rer.Estimates(), v.ReorgSeed, st.epoch)
			if rerr := v.tree.Reorganize(plan); rerr != nil {
				if st.firstErr == nil {
					st.firstErr = rerr
				}
			} else {
				planReorged = true
				v.Obsv.Reorg(st.epoch, plan.Moved, end)
				st.mem.rebalanced()
			}
		}
		// Plan hooks fire before membershipCut spawns newcomers: once a
		// joiner's goroutine exists the cut's quiescence is over, and the
		// joiner must find the invalidated cache, not a stale one. A
		// pending activation is itself a membership change.
		if v.Plan != nil {
			joins := len(st.mem.due(st.globalSteps)) > 0
			if planReorged || joins || st.mem.ndead != st.planDead {
				st.planDead = st.mem.ndead
				v.Plan.TreeChanged(v.tree, planOldFP)
			}
			v.Plan.GlobalBarrier(v.tree, st.globalSteps)
		}
		v.membershipCut(st, ctxs, end)
	}

	st.steps = append(st.steps, trace.Step{
		Index:        len(st.steps),
		Label:        label,
		ScopeLabel:   scope.Label(),
		ScopeName:    scope.Name,
		Level:        scope.Level,
		Participants: len(pids),
		W:            res.W,
		H:            res.H,
		Comm:         res.Comm,
		Sync:         res.Sync,
		Time:         res.Time,
		Ckpt:         ckptMax,
		Flows:        res.Flows,
		Bytes:        res.Bytes,
		GatingPid:    res.GatingPid,
		Imbalance:    res.Imbalance,
		Start:        start,
		End:          end,
	})

	for _, pid := range pids {
		st.clocks[pid] = end + ckptCost[pid]
		ctxs[pid].clock = st.clocks[pid]
		st.unpark(pid).resume <- nil
	}
}
