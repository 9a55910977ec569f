package hbsp

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"hbspk/internal/fabric"
	"hbspk/internal/model"
	"hbspk/internal/obsv"
	"hbspk/internal/pvm"
	"hbspk/internal/trace"
)

// Concurrent executes programs with real parallelism on the pvm
// substrate: every processor is a spawned task, bulk messages travel
// through task mailboxes, and scoped barriers are pvm group barriers.
// Heterogeneity can be emulated by time dilation: Charge busy-spins for
// ops·CompSlowdown·TimeUnit of wall time.
//
// The engine reports wall-clock step times, so its numbers are
// machine-dependent and noisy; it exists to validate that programs are
// correct concurrent code and deliver exactly the same data as the
// virtual engine. Programs must be well-formed SPMD (every processor of
// a scope syncs on it the same number of times); a malformed program is
// converted from a silent deadlock into ErrDesync by an always-on
// watchdog: every Sync registers a per-scope sync-generation waiter,
// and when a waited scope can provably never complete — a member
// already exited, or every live processor has been parked at a barrier
// for DesyncTimeout with no barrier completing — the run is halted with
// a report naming the waiting and lagging processors.
//
// A Chaos plan injects crash-stops and message faults with the same
// taxonomy as the virtual engine: a scope member's death surfaces to
// every live member as ErrPeerFailed at the same per-scope sync
// generation (the dying processor cancels the barriers of already
// parked survivors; late arrivals see the dead set before parking), and
// subsequent Syncs on that scope complete over the survivors.
type Concurrent struct {
	tree *model.Tree
	// TimeUnit is the wall-clock duration of one fastest-machine work
	// unit for Charge; zero disables dilation.
	TimeUnit time.Duration
	// DesyncTimeout is how long every live processor must sit blocked at
	// barriers, with none completing, before the watchdog declares a
	// desync. Zero means the 2s default; negative disables the watchdog
	// entirely (the exited-member check included).
	DesyncTimeout time.Duration

	// Chaos, when non-nil, injects the plan's faults. Crash-at-step and
	// message drop/duplicate fates match the virtual engine exactly
	// (they hash the same message identities); AtTime crashes and the
	// virtual-clock flavor of delays do not apply to wall-clock runs —
	// delays here park a message for the given number of the sender's
	// sync ordinals.
	Chaos *fabric.ChaosPlan

	// DetectFactor, when positive, arms a barrier-wait deadline of
	// DetectFactor × the observed mean barrier wait (EWMA), doubling
	// per successive timeout by the same processor. Expiry surfaces as
	// ErrTimeout: the peer's fate is unknown, unlike the definite
	// ErrPeerFailed of a detected crash. Off by default — crash
	// detection does not need it, it exists to model partitions.
	DetectFactor float64

	// Obsv, when non-nil, receives structured spans and metrics:
	// superstep spans (recorded by each scope's live coordinator,
	// measured only — the wall-clock engine makes no model prediction),
	// per-processor barrier waits, sampled deliveries, and chaos
	// injections. Times are microseconds since the run started.
	Obsv *obsv.Recorder

	// Verify enables the happens-before checker (DESIGN.md §5.3): every
	// message carries the sender's vector clock and a payload checksum
	// on the wire, clocks join at every barrier via a deposit exchange,
	// and a read without a barrier edge from its send — or a payload
	// that changed after Send — fails the processor with a typed
	// *ErrNondeterminism. Stamping is charged nothing: verification is
	// a harness, not part of the modeled protocol.
	Verify bool

	// Ckpt and CheckpointEvery enable superstep checkpointing, with the
	// same cadence and store semantics as the virtual engine: at every
	// CheckpointEvery-th completed global superstep each processor's
	// Save()d state is committed. The wall-clock engine does not charge
	// a modeled checkpoint cost (the commit's real cost is already in
	// the measured times); the virtual engine charges
	// Config.CheckpointByte for the same commits.
	Ckpt            *CheckpointStore
	CheckpointEvery int

	// ReorgEvery, ReorgSeed and ReorgAlpha mirror the virtual engine's
	// reorganization knobs (DESIGN.md §5.7): every ReorgEvery-th
	// completed global superstep the run opens a cut window — all live
	// processors park on a pair of cut barriers while one applier
	// rebalances the tree from the shared EWMA estimates via the seeded
	// model.PlanReorg. The same window activates dormant joiners. The
	// tree is mutated in place; restore it with Tree.SaveLayout /
	// RestoreLayout to rerun from the pristine layout.
	ReorgEvery int
	ReorgSeed  int64
	ReorgAlpha float64

	// Plan mirrors the virtual engine's planner seam (DESIGN.md §5.9).
	// On this engine the hook fires from the single cut applier inside
	// a cut window — the engine's only SPMD-quiescent points — so
	// online refinement commits at the reorg/membership cadence; set
	// ReorgEvery to open windows on a straggler-free run.
	Plan PlanHook

	// Transport, when non-nil, builds the pvm transport each Run
	// attaches to its System (DESIGN.md §5.10) — a fresh instance per
	// run, closed when the run ends. Nil keeps the in-proc direct path.
	// A transport that severs mid-run surfaces as ErrPeerFailed with
	// cause "link lost", through the same shrink protocol as a crash.
	Transport func() (pvm.Transport, error)
}

// defaultDesyncTimeout balances catching real deadlocks quickly against
// never firing on a healthy but heavily dilated run: the stall clock
// only advances while every live processor is inside a barrier wait, so
// long Charge phases cannot trip it.
const defaultDesyncTimeout = 2 * time.Second

// NewConcurrent returns a wall-clock engine for the tree.
func NewConcurrent(t *model.Tree) *Concurrent { return &Concurrent{tree: t} }

// cctx is the per-processor Ctx of the concurrent engine.
type cctx struct {
	pid  int
	leaf *model.Machine
	eng  *Concurrent
	task *pvm.Task
	tids []pvm.TID

	outbox []pendingMsg
	inbox  []Message
	seq    int
	// batch groups one superstep's outbox per destination so each
	// mailbox is appended under a single lock acquisition; touched lists
	// the destinations with a non-empty batch.
	batch   [][]*pvm.Buffer
	touched []int
	// syncSeq counts this processor's syncs per scope so that senders
	// and receivers agree on a message tag per (scope, generation).
	syncSeq map[*model.Machine]int
	// ord counts this processor's Sync calls across all scopes: the
	// chaos plan's per-processor step ordinal.
	ord int
	// opsAcc accumulates Charge()d ops since the last Sync; the amount
	// is captured at Sync entry and, only if the barrier succeeds, its
	// effective slowdown is folded into the shared reorg estimate —
	// the same observe-on-success rule the virtual engine applies, so
	// equal seeds produce equal estimate streams on both engines.
	opsAcc float64
	// rootDone counts this processor's successful root-scope syncs: the
	// engine-independent consistent-cut ordinal (a joiner starts at its
	// activation cut), driving checkpoint cadence and cut windows.
	rootDone int

	failedView  []int
	membersView []int
	ckptStage   map[string][]byte

	// Verification state: this processor's vector clock, the metadata of
	// the current delivery window, and the count of completed syncs.
	vc     VClock
	inmeta []msgMeta
	steps  int

	shared *crun
}

// crun is the state shared by all processors of one Run.
type crun struct {
	mu      sync.Mutex
	sys     *pvm.System
	steps   []trace.Step
	scopeID map[*model.Machine]int
	started time.Time

	// Desync watchdog state, all under mu: waiting maps pid to its
	// current barrier wait, exited records returned processors, progress
	// counts barrier completions and exits (any increment proves the run
	// is still advancing), desync latches the watchdog's verdict.
	nprocs   int
	waiting  map[int]*syncWait
	exited   map[int]bool
	progress uint64
	desync   error
	// arrived[pid][scope] is the highest sync generation pid has reached
	// on that scope. An exited member is only lagging for a waiter if it
	// never arrived at the waiter's generation; without this, a member
	// exiting right after the final barrier would race a still-parked
	// waiter into a false desync.
	arrived map[int]map[*model.Machine]int

	// mem is the run's membership protocol core, under mu: dead,
	// dormant and joined processors and every processor's
	// acknowledgments and views.
	mem *membership

	// Fault-tolerance state, under mu: detectCount drives the optional
	// deadline backoff; waitEWMA tracks the mean successful barrier
	// wait, the deadline's prediction base.
	detectCount map[int]int
	waitEWMA    time.Duration
	// exitc wakes a cut applier waiting for a crash victim's goroutine
	// to finish unwinding: a resumed victim still runs user code that
	// may read the tree, so the applier must not rebalance over it.
	// Signaled by markExited; waits under mu.
	exitc *sync.Cond

	// Generation and activation state, under mu. gens[scope] is the next
	// sync generation of the scope (every Sync entry raises it); cutGens
	// is the applier's snapshot of gens at the last membership cut,
	// taken while every live processor is parked inside the cut window.
	// Members re-align their per-scope generations against it when they
	// leave the window (a rebalance can move a leaf under a scope it has
	// never synced on), and joiners activated at that cut start from it.
	// Dormant tasks are pre-spawned but parked behind a per-pid gate.
	gens    map[*model.Machine]int
	cutGens map[*model.Machine]int
	gates   map[int]chan struct{}

	// Reorganization state, under mu: rer folds each processor's
	// measured effective compute slowdown; epoch counts applied
	// reorganizations.
	rer   *model.Reranker
	epoch int

	// planDead tracks the dead-set size last reported to the PlanHook
	// (guarded by mu), so each death surfaces as exactly one
	// TreeChanged at the next cut window.
	planDead int
}

// syncWait describes one processor parked in Sync: the scope, this
// processor's sync generation for it, the member pids that must arrive
// for the barrier to complete, and the pvm barrier name (so a crashing
// member can cancel exactly this wait).
type syncWait struct {
	scope   *model.Machine
	label   string
	gen     int
	members []int
	barrier string
}

// checkAndEnter is the survivor side of the crash protocol's
// serialization point. Under one critical section it either takes the
// processor's next membership notice from the core, or registers the
// barrier wait, with the caller's barrier name extended by the core's
// shrunken identity and the live count returned. A crashing member
// holds the same lock while it marks itself dead and collects parked
// waiters to cancel, so every survivor either parks before the cancel
// or sees the dead set here.
func (s *crun) checkAndEnter(c *cctx, w *syncWait) (count int, notice error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// gens tracks the scope's next generation regardless of the path
	// this sync takes: a notice-consumed generation is still burned.
	if w.gen+1 > s.gens[w.scope] {
		s.gens[w.scope] = w.gen + 1
	}
	if notice = s.noticeLocked(c, w.scope); notice != nil {
		return 0, notice
	}
	count, shrunk := s.mem.barrier(c.pid, w.scope)
	w.barrier += shrunk
	s.waiting[c.pid] = w
	m := s.arrived[c.pid]
	if m == nil {
		m = make(map[*model.Machine]int)
		s.arrived[c.pid] = m
	}
	m[w.scope] = w.gen
	return count, nil
}

// noticeLocked takes c's next membership notice on scope from the core
// and refreshes the view it changes. Caller holds mu.
func (s *crun) noticeLocked(c *cctx, scope *model.Machine) error {
	notice := s.mem.notice(c.pid, scope)
	switch notice.(type) {
	case *ErrPeerFailed:
		c.failedView = s.mem.failed(c.pid)
	case *ErrPeerJoined:
		c.membersView = s.mem.members(c.pid)
	}
	return notice
}

// crashSelf is the victim side: mark pid dead under mu and collect the
// barrier names of parked survivors waiting on scopes containing pid,
// then cancel them outside the lock. Canceled waiters wake with
// ErrCanceled and convert it to ErrPeerFailed.
func (s *crun) crashSelf(pid, ord int, cause string) {
	s.mu.Lock()
	s.mem.kill(pid, ord, cause)
	var cancel []string
	for waiter, w := range s.waiting {
		if waiter == pid {
			continue
		}
		for _, m := range w.members {
			if m == pid {
				cancel = append(cancel, w.barrier)
				break
			}
		}
	}
	sys := s.sys
	s.mu.Unlock()
	for _, name := range cancel {
		sys.CancelBarrier(name)
	}
}

// canceled handles a survivor woken by a crash cancel: its next notice
// on the scope names the death, or nil when it owes none.
func (s *crun) canceled(c *cctx, scope *model.Machine) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.noticeLocked(c, scope)
}

func (s *crun) leaveSync(pid int, wait time.Duration) {
	s.mu.Lock()
	delete(s.waiting, pid)
	s.progress++
	if wait > 0 {
		if s.waitEWMA == 0 {
			s.waitEWMA = wait
		} else {
			s.waitEWMA = (s.waitEWMA*4 + wait) / 5
		}
	}
	s.mu.Unlock()
}

func (s *crun) markExited(pid int) {
	s.mu.Lock()
	s.exited[pid] = true
	s.progress++
	s.exitc.Broadcast()
	// When the last non-dormant task exits, no cut window can ever run
	// again (appliers are live tasks), so never-activated joiners are
	// released: their gates close, and the waking tasks see no joined
	// record and return without running the program.
	var release []chan struct{}
	if len(s.exited) == s.nprocs-s.mem.ndormant {
		for pid, g := range s.gates {
			if s.mem.isDormant(pid) {
				release = append(release, g)
			}
		}
	}
	s.mu.Unlock()
	for _, g := range release {
		close(g)
	}
}

func (s *crun) desyncErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.desync
}

// barrierDeadline returns the optional detection deadline for pid: the
// engine's DetectFactor × the observed mean barrier wait, doubling per
// successive timeout (failure-detector backoff). Zero means no deadline.
func (s *crun) barrierDeadline(pid int, factor float64) time.Duration {
	if factor <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	base := s.waitEWMA
	if base <= 0 {
		return 0 // no history yet: no deadline
	}
	backoff := s.detectCount[pid]
	if backoff > 6 {
		backoff = 6
	}
	return time.Duration(factor * float64(base) * float64(int(1)<<uint(backoff)))
}

func (s *crun) noteTimeout(pid int) {
	s.mu.Lock()
	s.detectCount[pid]++
	s.mu.Unlock()
}

// observe folds one processor's measured effective compute slowdown
// into the shared reorg estimate.
func (s *crun) observe(pid int, sample float64) {
	s.mu.Lock()
	s.rer.Observe(pid, sample)
	s.mu.Unlock()
}

// watch polls the waiter registry until done closes. It declares a
// desync when a waited barrier can provably never complete:
//
//   - a member of a waited scope has already exited (deterministic, no
//     timeout involved), or
//   - every live processor has been parked at some barrier across a
//     full timeout window with no barrier completing in between —
//     barriers only complete through arrivals, and with nobody left to
//     arrive the run cannot advance.
//
// A chaos-killed member is not a desync: the victim's cancel already
// races ahead of the watchdog, which only re-cancels the waiter's
// barrier as a backstop.
//
// On a verdict it latches the structured error and halts the system,
// waking every parked barrier with ErrHalted.
func (s *crun) watch(sys *pvm.System, timeout time.Duration, done <-chan struct{}) {
	tick := timeout / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	if tick > 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	var (
		stallSince    time.Time
		stallProgress uint64
		stalled       bool
	)
	for {
		select {
		case <-done:
			return
		case now := <-ticker.C:
			s.mu.Lock()
			if s.desync != nil {
				s.mu.Unlock()
				return
			}
			cancel, err := s.exitedMemberDesync()
			if err != nil {
				s.desync = err
				s.mu.Unlock()
				sys.Halt()
				return
			}
			s.mu.Unlock()
			for _, name := range cancel {
				sys.CancelBarrier(name)
			}
			s.mu.Lock()
			// Dormant processors are parked by definition: their tasks
			// idle behind activation gates, so they never count as
			// missing arrivals.
			allParked := len(s.waiting) > 0 && len(s.waiting)+len(s.exited)+s.mem.ndormant == s.nprocs
			if !allParked || !stalled || s.progress != stallProgress {
				stalled = allParked
				stallProgress = s.progress
				stallSince = now
				s.mu.Unlock()
				continue
			}
			if now.Sub(stallSince) < timeout {
				s.mu.Unlock()
				continue
			}
			s.desync = s.stallDesync()
			s.mu.Unlock()
			sys.Halt()
			return
		}
	}
}

// exitedMemberDesync reports a waited scope with an exited member, a
// barrier that can never complete. Chaos-killed members are not a
// program bug: their waiters' barriers are returned for cancellation
// (the failure path) instead of a desync verdict. Caller holds mu.
func (s *crun) exitedMemberDesync() (cancel []string, err error) {
	for pid, w := range s.waiting {
		for _, m := range w.members {
			reached, ok := s.arrived[m][w.scope]
			if s.exited[m] && (!ok || reached < w.gen) {
				if s.mem.isDead(m) {
					// Only a barrier that has not yet acknowledged this
					// death can hang on it; an acked barrier counts live
					// members only and completes without the corpse.
					if !s.mem.ackedDead(pid, w.scope, m) {
						cancel = append(cancel, w.barrier)
					}
					continue
				}
				return nil, fmt.Errorf("%w: p%d waits on %s#%d(%s) but member p%d already exited",
					ErrDesync, pid, w.scope.Label(), w.gen, w.label, m)
			}
		}
	}
	return cancel, nil
}

// stallDesync builds the stalled-barriers report: who waits where, and
// which scope members lag. Caller holds mu.
func (s *crun) stallDesync() error {
	var waitParts, lagParts []string
	lagging := map[int]bool{}
	for pid := 0; pid < s.nprocs; pid++ {
		w, ok := s.waiting[pid]
		if !ok {
			continue
		}
		waitParts = append(waitParts, fmt.Sprintf("p%d@%s#%d(%s)", pid, w.scope.Label(), w.gen, w.label))
		for _, m := range w.members {
			mw := s.waiting[m]
			if mw == nil || mw.scope != w.scope || mw.gen != w.gen {
				lagging[m] = true
			}
		}
	}
	for pid := 0; pid < s.nprocs; pid++ {
		if !lagging[pid] {
			continue
		}
		switch {
		case s.exited[pid]:
			lagParts = append(lagParts, fmt.Sprintf("p%d:exited", pid))
		case s.waiting[pid] != nil:
			w := s.waiting[pid]
			lagParts = append(lagParts, fmt.Sprintf("p%d:at %s#%d(%s)", pid, w.scope.Label(), w.gen, w.label))
		default:
			lagParts = append(lagParts, fmt.Sprintf("p%d:not at a barrier", pid))
		}
	}
	msg := "waiting: " + strings.Join(waitParts, " ")
	if len(lagParts) > 0 {
		msg += "; lagging: " + strings.Join(lagParts, " ")
	}
	return fmt.Errorf("%w: %s", ErrDesync, msg)
}

func (c *cctx) Pid() int             { return c.pid }
func (c *cctx) NProcs() int          { return c.eng.tree.NProcs() }
func (c *cctx) Tree() *model.Tree    { return c.eng.tree }
func (c *cctx) Self() *model.Machine { return c.leaf }
func (c *cctx) Moves() []Message     { return c.inbox }

func (c *cctx) Charge(ops float64) {
	if ops <= 0 {
		return
	}
	c.opsAcc += ops
	if c.eng.TimeUnit <= 0 {
		return
	}
	slow := c.eng.Chaos.Slowdown(c.pid, c.ord)
	d := time.Duration(ops * c.leaf.CompSlowdown * slow * float64(c.eng.TimeUnit))
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		// Busy spin: emulated computation must consume CPU, not yield
		// it, to behave like the real slow machine.
	}
}

func (c *cctx) Failed() []int { return append([]int(nil), c.failedView...) }

func (c *cctx) Members() []int { return append([]int(nil), c.membersView...) }

func (c *cctx) Save(key string, data []byte) {
	if c.ckptStage == nil {
		c.ckptStage = make(map[string][]byte)
	}
	c.ckptStage[key] = append([]byte(nil), data...)
}

func (c *cctx) Restore(key string) ([]byte, bool) {
	if c.eng.Ckpt == nil {
		return nil, false
	}
	return c.eng.Ckpt.get(c.pid, key)
}

func (c *cctx) Send(dst, tag int, payload []byte) error {
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

// wireTag encodes (scope, generation, user tag) into a pvm tag so that
// messages of different supersteps never mix. User tags must fit 8
// bits; generations wrap within 20 bits, far beyond any real run.
func (c *cctx) wireTag(scope *model.Machine, gen, userTag int) int {
	c.shared.mu.Lock()
	id, ok := c.shared.scopeID[scope]
	if !ok {
		id = len(c.shared.scopeID) + 1
		c.shared.scopeID[scope] = id
	}
	c.shared.mu.Unlock()
	return id<<28 | (gen&0xFFFFF)<<8 | (userTag & 0xFF)
}

func (c *cctx) Sync(scope *model.Machine, label string) error {
	if scope == nil {
		return errors.New("hbsp: Sync with nil scope")
	}
	if c.eng.Verify {
		// The closing barrier ends the window in which this superstep was
		// entitled to read its inbox: the payloads must still hash to
		// their delivery stamps.
		if e := recheckWindow(c.pid, c.steps, c.inbox, c.inmeta); e != nil {
			return e
		}
	}
	ord := c.ord
	c.ord++
	gen := c.syncSeq[scope]
	c.syncSeq[scope] = gen + 1
	// The superstep's charged work is captured here and folded into the
	// reorg estimate only if the barrier succeeds — a failed sync drops
	// its work, matching the virtual engine's observe-on-success rule.
	ops := c.opsAcc
	c.opsAcc = 0

	// Crash-stop injection: the victim dies at the boundary, losing the
	// superstep in progress (nothing queued is flushed), and cancels the
	// barriers of already parked members so they observe the failure.
	if c.eng.Chaos.CrashNow(c.pid, ord, 0) {
		c.eng.Obsv.Chaos("crash", ord, c.pid, c.pid, c.nowMicros())
		c.shared.crashSelf(c.pid, ord, "crash-stop")
		return fmt.Errorf("%w (p%d at step %d)", errCrashStop, c.pid, ord)
	}
	// Orderly departure rides the crash machinery with a distinct cause:
	// survivors shrink their barriers exactly as for a crash but read
	// "leave" in the report, and the victim unwinds with errLeave.
	if c.eng.Chaos.LeaveNow(c.pid, ord) {
		c.eng.Obsv.Chaos("leave", ord, c.pid, c.pid, c.nowMicros())
		c.shared.crashSelf(c.pid, ord, "leave")
		return fmt.Errorf("%w (p%d at step %d)", errLeave, c.pid, ord)
	}

	sh := c.shared
	sh.mu.Lock()
	members := sh.mem.scope(scope)
	quiet := sh.mem.quiet()
	sh.mu.Unlock()
	inScope := make(map[int]bool, len(members))
	for _, q := range members {
		inScope[q] = true
	}
	if !inScope[c.pid] {
		return fmt.Errorf("hbsp: processor %d syncing on foreign scope %s", c.pid, scope.Label())
	}

	start := time.Since(c.shared.started)

	// Transmit every queued message whose endpoints are both inside the
	// scope; the rest stay queued for a wider sync. Chaos fates are
	// assigned at the first flush a message could take: dropped
	// messages vanish, duplicates go twice, delayed ones stay queued
	// until the sender's ordinal passes the hold. Messages to a dead
	// destination are dropped.
	var kept []pendingMsg
	sentBytes := 0
	for i := range c.outbox {
		m := c.outbox[i]
		if !inScope[m.dst] {
			kept = append(kept, m)
			continue
		}
		hold, deadDst := false, false
		if !quiet {
			sh.mu.Lock()
			hold, deadDst = sh.mem.hold(c.pid, scope, m.dst), sh.mem.isDead(m.dst)
			sh.mu.Unlock()
		}
		if hold {
			// Destination not yet reachable at this generation (see
			// membership.hold). Held messages flush on the retry sync,
			// landing at the same post-ack step the virtual engine
			// delivers them. Fate stays unassigned, as in the virtual
			// engine's hold.
			kept = append(kept, m)
			continue
		}
		if !m.fated {
			f := c.eng.Chaos.MessageFate(m.src, m.dst, m.seq)
			m.fated, m.drop, m.dup = true, f.Drop, f.Duplicate
			if f.Delay > 0 {
				m.holdUntil = ord + f.Delay
			}
			switch {
			case f.Drop:
				c.eng.Obsv.Chaos("drop", ord, m.src, m.dst, c.nowMicros())
			case f.Duplicate:
				c.eng.Obsv.Chaos("duplicate", ord, m.src, m.dst, c.nowMicros())
			case f.Delay > 0:
				c.eng.Obsv.Chaos("delay", ord, m.src, m.dst, c.nowMicros())
			}
		}
		if m.holdUntil > ord {
			kept = append(kept, m)
			continue
		}
		if m.drop || deadDst {
			continue
		}
		copies := 1
		if m.dup {
			copies = 2
		}
		for n := 0; n < copies; n++ {
			buf := pvm.NewBuffer()
			buf.PackInt32(int32(m.src))
			buf.PackInt64(int64(m.tag))
			buf.PackBytes(m.payload)
			if c.eng.Verify {
				buf.PackInt64(int64(m.sum))
				buf.PackInt64Slice(m.stamp.encodeInt64())
			}
			if c.batch == nil {
				c.batch = make([][]*pvm.Buffer, c.NProcs())
			}
			if len(c.batch[m.dst]) == 0 {
				c.touched = append(c.touched, m.dst)
			}
			c.batch[m.dst] = append(c.batch[m.dst], buf)
			sentBytes += len(m.payload)
		}
	}
	c.outbox = kept

	// One mailbox append per destination, in pid order: the whole
	// superstep's traffic to a peer lands under a single lock
	// acquisition.
	sort.Ints(c.touched)
	var sendErr error
	lostDst := -1
	for _, dst := range c.touched {
		if sendErr == nil {
			if sendErr = c.task.SendBatch(c.tids[dst], c.wireTag(scope, gen, 0), c.batch[dst]); sendErr != nil && errors.Is(sendErr, pvm.ErrPeerLost) {
				lostDst = dst
			}
		}
		c.batch[dst] = c.batch[dst][:0]
	}
	c.touched = c.touched[:0]
	if sendErr != nil {
		if lostDst >= 0 && lostDst != c.pid {
			// A severed wire link is a detected peer failure: run the
			// same shrink protocol as a crash, so every survivor of the
			// scope observes ErrPeerFailed at one consistent generation
			// and later Syncs complete over the remaining members.
			c.shared.crashSelf(lostDst, ord, "link lost")
			if notice := c.shared.canceled(c, scope); notice != nil {
				return notice
			}
		}
		return sendErr
	}
	wait := &syncWait{
		scope:   scope,
		label:   label,
		gen:     gen,
		members: members,
		barrier: fmt.Sprintf("sync:%s#%d", scope.Label(), gen),
	}
	count, notice := c.shared.checkAndEnter(c, wait)
	if notice != nil {
		return notice
	}
	deadline := c.shared.barrierDeadline(c.pid, c.eng.DetectFactor)
	bEnter := time.Since(c.shared.started)
	var err error
	var deposits map[pvm.TID][]byte
	if c.eng.Verify {
		// Barriers double as the clock-join: every participant deposits
		// its vector clock and gathers the others' on completion.
		dep := pvm.NewBuffer().PackInt64Slice(c.vc.encodeInt64()).Bytes()
		deposits, err = c.task.BarrierExchange(wait.barrier, count, deadline, dep)
	} else {
		err = c.task.BarrierTimeout(wait.barrier, count, deadline)
	}
	c.shared.leaveSync(c.pid, time.Since(c.shared.started)-start)
	if err == nil {
		c.eng.Obsv.BarrierWait(ord, c.pid, scope.Label(), scope.Level,
			micros(bEnter), c.nowMicros())
	}
	if err != nil {
		switch {
		case errors.Is(err, pvm.ErrCanceled):
			// A member crashed while we were parked; convert the cancel
			// into the typed failure.
			if notice := c.shared.canceled(c, scope); notice != nil {
				return notice
			}
			return err
		case errors.Is(err, pvm.ErrTimeout):
			c.shared.noteTimeout(c.pid)
			return fmt.Errorf("hbsp: detection deadline on %s#%d(%s): %w",
				scope.Label(), gen, label, err)
		case errors.Is(err, pvm.ErrHalted):
			// A halt during the wait means the watchdog declared a
			// desync: surface its structured report instead of the bare
			// ErrHalted.
			if derr := c.shared.desyncErr(); derr != nil {
				return derr
			}
		}
		return err
	}

	c.steps++
	if c.eng.Verify {
		for _, raw := range deposits {
			vs, derr := pvm.Wrap(raw).UnpackInt64Slice()
			if derr != nil {
				return derr
			}
			c.vc.join(decodeVClock(vs))
		}
		c.vc.tick(c.pid)
	}

	// All sends of this (scope, gen) happened before any barrier exit,
	// so the mailbox now holds the complete delivery. Payloads are
	// copied out of the pooled wires into one fresh slab per window —
	// delivered bytes keep garbage-collected lifetime (programs hold
	// collective results across supersteps), while the wire buffers
	// release straight back to the arena.
	c.inbox = c.inbox[:0]
	c.inmeta = c.inmeta[:0]
	recvBytes := 0
	// A malformed frame aborts the superstep, but the rest of the
	// drained window still holds pooled wire records: hand the
	// remainder (current message included) back to the arena before
	// surfacing the error.
	releaseRest := func(rest []pvm.Message, err error) error {
		for _, m := range rest {
			m.Release()
		}
		return err
	}
	msgs := c.task.TryRecvAll(pvm.AnySource, c.wireTag(scope, gen, 0))
	slabCap := 0
	for _, m := range msgs {
		slabCap += m.Len()
	}
	slab := make([]byte, 0, slabCap)
	for i, m := range msgs {
		b := m.Buffer()
		src, err := b.UnpackInt32()
		if err != nil {
			return releaseRest(msgs[i:], err)
		}
		tag, err := b.UnpackInt64()
		if err != nil {
			return releaseRest(msgs[i:], err)
		}
		payload, err := b.UnpackBytes()
		if err != nil {
			return releaseRest(msgs[i:], err)
		}
		// slabCap over-covers the framing, so these appends never
		// reallocate and earlier windows' slices stay intact.
		slab = append(slab, payload...)
		payload = slab[len(slab)-len(payload):]
		if c.eng.Verify {
			sum, err := b.UnpackInt64()
			if err != nil {
				return releaseRest(msgs[i:], err)
			}
			stamp, err := b.UnpackInt64Slice()
			if err != nil {
				return releaseRest(msgs[i:], err)
			}
			c.inmeta = append(c.inmeta, msgMeta{src: int(src), tag: int(tag),
				stamp: decodeVClock(stamp), sum: uint64(sum)})
		}
		c.inbox = append(c.inbox, Message{Src: int(src), Tag: int(tag), Payload: payload})
		recvBytes += len(payload)
		c.eng.Obsv.Delivery(ord, int(src), c.pid, int(tag), int64(len(payload)), c.nowMicros())
		m.Release()
	}
	if c.eng.Verify {
		// Sort inbox and metadata through one index permutation so the
		// stamps stay aligned with their messages, then run the
		// happens-before and checksum checks on the delivered window.
		idx := make([]int, len(c.inbox))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return c.inbox[idx[a]].Src < c.inbox[idx[b]].Src })
		inbox := make([]Message, len(c.inbox))
		metas := make([]msgMeta, len(c.inbox))
		for i, j := range idx {
			inbox[i], metas[i] = c.inbox[j], c.inmeta[j]
		}
		c.inbox, c.inmeta = inbox, metas
		for i, m := range c.inbox {
			if e := checkDelivery(c.pid, c.steps, m, c.inmeta[i], c.vc); e != nil {
				return e
			}
		}
	} else {
		// Arrival order is already per-sender FIFO; a stable sort by
		// source yields the engine's (Src, send order) delivery contract.
		sort.SliceStable(c.inbox, func(a, b int) bool { return c.inbox[a].Src < c.inbox[b].Src })
	}

	// Fold the superstep's measured effective compute slowdown — static
	// slowdown times the transient straggler factor — into the shared
	// reorg estimate (observe-on-success; see the ops capture above).
	if ops > 0 {
		c.shared.observe(c.pid, c.leaf.CompSlowdown*c.eng.Chaos.Slowdown(c.pid, ord))
	}

	// Checkpoint commit at the consistent-cut cadence: rootDone counts
	// this processor's successful global barriers (a joiner starts at
	// its activation cut), so every live processor commits at the same
	// cut ordinals even though per-scope generations shift under churn.
	if scope == c.eng.tree.Root {
		c.rootDone++
		if c.eng.Ckpt != nil && c.eng.CheckpointEvery > 0 &&
			c.rootDone%c.eng.CheckpointEvery == 0 {
			c.eng.Ckpt.commit(c.pid, c.rootDone, c.ckptStage)
			c.ckptStage = nil
		}
	}

	// The scope coordinator records the step — the fastest live member,
	// so a dead coordinator's role fails over.
	if c.liveCoordinator(scope) == c.leaf {
		end := time.Since(c.shared.started)
		c.shared.mu.Lock()
		idx := len(c.shared.steps)
		c.shared.steps = append(c.shared.steps, trace.Step{
			Index:        idx,
			Label:        label,
			ScopeLabel:   scope.Label(),
			ScopeName:    scope.Name,
			Level:        scope.Level,
			Participants: count,
			Time:         float64(end-start) / float64(time.Microsecond),
			Bytes:        sentBytes + recvBytes,
			Start:        float64(start) / float64(time.Microsecond),
			End:          float64(end) / float64(time.Microsecond),
		})
		c.shared.mu.Unlock()
		c.eng.Obsv.Superstep(idx, label, scope.Label(), scope.Level,
			micros(start), micros(end), 0, int64(sentBytes+recvBytes))
	}

	// Cut window: when this global barrier's ordinal triggers a reorg
	// or an activation, every participant parks on a pair of cut
	// barriers while one applier rebalances the tree and opens joiner
	// gates. The step record above already read the pre-reorg layout,
	// so nothing reads the tree while the applier mutates it.
	if scope == c.eng.tree.Root && c.pendingCut(c.rootDone) {
		if err := c.cutWindow(count); err != nil {
			return err
		}
	}
	return nil
}

// pendingCut reports whether the cut at global ordinal R has work: a
// scheduled reorganization or a dormant processor whose activation
// point has been reached. Every participant of the barrier computes the
// same verdict — R is shared, ReorgEvery is config, and the dormant set
// only changes inside cut windows.
func (c *cctx) pendingCut(R int) bool {
	if c.eng.ReorgEvery > 0 && R%c.eng.ReorgEvery == 0 {
		return true
	}
	s := c.shared
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem.due(R)) > 0
}

// cutWindow serializes one consistent cut: cut:in waits until every
// participant has finished its post-barrier reads (deliveries, step
// record), the core's single applier applies the cut, and cut:out
// holds everyone until the tree is stable again.
func (c *cctx) cutWindow(count int) error {
	R := c.rootDone
	if err := c.task.BarrierTimeout(fmt.Sprintf("cut:in#%d", R), count, 0); err != nil {
		return c.cutErr(err)
	}
	s := c.shared
	s.mu.Lock()
	applier := s.mem.applier()
	s.mu.Unlock()
	var applyErr error
	if applier == c.pid {
		applyErr = c.applyCut(R)
	}
	if err := c.task.BarrierTimeout(fmt.Sprintf("cut:out#%d", R), count, 0); err != nil {
		return c.cutErr(err)
	}
	// Re-align this processor's per-scope sync generations with the
	// cut's snapshot: a rebalance can move the leaf under a scope it has
	// never synced on, where peers already burned generations. The
	// snapshot — not the live registry — is what keeps this safe: fast
	// members leaving the window burn new generations concurrently, and
	// reading those here would push this processor's next barrier past
	// its peers'. Scope generations advance in lockstep across a scope's
	// members, so for scopes this processor already synced the
	// assignment is a no-op.
	s.mu.Lock()
	for m, g := range s.cutGens {
		if g > c.syncSeq[m] {
			c.syncSeq[m] = g
		}
	}
	s.mu.Unlock()
	return applyErr
}

// cutErr converts a watchdog halt during a cut barrier into the
// structured desync report, like the main barrier path.
func (c *cctx) cutErr(err error) error {
	if errors.Is(err, pvm.ErrHalted) {
		if derr := c.shared.desyncErr(); derr != nil {
			return derr
		}
	}
	return err
}

// applyCut is the applier side of the cut window: rebalance the tree
// from the shared estimates, then activate every dormant processor
// whose join point has been reached. Reorg strictly precedes activation
// — an opened gate's task starts reading the tree immediately.
func (c *cctx) applyCut(R int) error {
	e, s := c.eng, c.shared
	var planOldFP uint64
	planReorged := false
	if e.Plan != nil {
		planOldFP = e.tree.Fingerprint()
	}
	if e.ReorgEvery > 0 && R%e.ReorgEvery == 0 {
		s.mu.Lock()
		// Crash victims and leavers unwind with their error and may still
		// be running user code that reads the tree (a fault-tolerant
		// session walks scope leaves to report its live view). Wait them
		// out before rebalancing: every live member is parked inside the
		// cut window, a dead requester's re-sync resolves immediately
		// under mu, and its deferred markExited signals exitc.
		for s.mem.anyDead(func(pid int) bool { return !s.exited[pid] }) {
			s.exitc.Wait()
		}
		s.epoch++
		epoch := s.epoch
		est := s.rer.Estimates()
		s.mu.Unlock()
		plan := model.PlanReorg(e.tree, est, e.ReorgSeed, epoch)
		if err := e.tree.Reorganize(plan); err != nil {
			return err
		}
		planReorged = true
		e.Obsv.Reorg(epoch, plan.Moved, c.nowMicros())
		s.mu.Lock()
		s.mem.rebalanced()
		s.mu.Unlock()
	}

	s.mu.Lock()
	// Snapshot the generation registry while every live processor is
	// parked inside the cut window: members re-align their per-scope
	// generations against this stable copy after cut:out, and joiners
	// seed theirs from it.
	cutGens := make(map[*model.Machine]int, len(s.gens))
	for k, v := range s.gens {
		cutGens[k] = v
	}
	s.cutGens = cutGens
	act := s.mem.due(R)
	s.mem.activate(act, R)
	planDeadChanged := s.mem.ndead != s.planDead
	s.planDead = s.mem.ndead
	s.mu.Unlock()
	// Plan hooks fire before the joiners' gates open: an activated
	// joiner starts deciding immediately, and it must find the
	// invalidated cache. All live incumbents are still parked between
	// the cut barriers.
	if e.Plan != nil {
		if planReorged || len(act) > 0 || planDeadChanged {
			e.Plan.TreeChanged(e.tree, planOldFP)
		}
		e.Plan.GlobalBarrier(e.tree, R)
	}
	for _, pid := range act {
		e.Obsv.Chaos("join", R, pid, pid, c.nowMicros())
		close(s.gates[pid])
	}
	return nil
}

// micros converts an engine-relative duration to the microsecond time
// base the observability layer uses for wall-clock runs.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// nowMicros is the processor's current time on the run clock.
func (c *cctx) nowMicros() float64 { return micros(time.Since(c.shared.started)) }

// liveCoordinator is the scope coordinator restricted to leaves this
// processor knows to be active members and not dead: coordinator
// failover, plus exclusion of dormant (not-yet-joined) leaves. Both
// views are generation-aligned across a scope's live members by the
// notice protocols, so exactly one participant claims the role.
func (c *cctx) liveCoordinator(scope *model.Machine) *model.Machine {
	if len(c.failedView) == 0 && len(c.membersView) == c.NProcs() {
		return scope.Coordinator()
	}
	dead := make(map[int]bool, len(c.failedView))
	for _, pid := range c.failedView {
		dead[pid] = true
	}
	active := make(map[int]bool, len(c.membersView))
	for _, pid := range c.membersView {
		active[pid] = true
	}
	return scope.CoordinatorAmong(func(m *model.Machine) bool {
		pid := c.eng.tree.Pid(m)
		return active[pid] && !dead[pid]
	})
}

// Run executes the program on every processor with real concurrency and
// returns a wall-clock report (times in microseconds). A chaos-injected
// crash-stop is not itself a run error: if the survivors complete, the
// run completes.
func (e *Concurrent) Run(prog Program) (*trace.Report, error) {
	p := e.tree.NProcs()
	sys := pvm.NewSystem()
	if e.Transport != nil {
		tr, err := e.Transport()
		if err != nil {
			return nil, fmt.Errorf("hbsp: transport: %w", err)
		}
		if tr != nil {
			if err := sys.SetTransport(tr); err != nil {
				_ = tr.Close()
				return nil, fmt.Errorf("hbsp: transport attach: %w", err)
			}
			// LIFO: the transport outlives every deferred teardown below
			// (watchdog included), so pumps drain only after the tasks
			// are done sending.
			defer func() { _ = tr.Close() }()
		}
	}
	shared := &crun{
		sys:         sys,
		scopeID:     make(map[*model.Machine]int),
		started:     time.Now(),
		nprocs:      p,
		waiting:     make(map[int]*syncWait),
		exited:      make(map[int]bool),
		arrived:     make(map[int]map[*model.Machine]int),
		mem:         newMembership(e.tree, e.Chaos),
		detectCount: make(map[int]int),
		gens:        make(map[*model.Machine]int),
		gates:       make(map[int]chan struct{}),
		rer:         model.NewReranker(p, e.ReorgAlpha),
	}
	shared.exitc = sync.NewCond(&shared.mu)
	// Elastic membership: processors with a churn JoinAt fate start
	// dormant behind a gate; their pre-spawned tasks idle until the
	// applier of their activation cut closes the gate (or until the run
	// ends without reaching it).
	for pid := 0; pid < p; pid++ {
		if shared.mem.isDormant(pid) {
			shared.gates[pid] = make(chan struct{})
		}
	}

	timeout := e.DesyncTimeout
	if timeout == 0 {
		timeout = defaultDesyncTimeout
	}
	if timeout > 0 {
		done := make(chan struct{})
		defer close(done)
		go shared.watch(sys, timeout, done)
	}

	tids := make([]pvm.TID, p)
	ready := make(chan struct{})
	for pid := 0; pid < p; pid++ {
		pid := pid
		gate := shared.gates[pid]
		tids[pid] = sys.Spawn(fmt.Sprintf("proc%d", pid), func(t *pvm.Task) error {
			// markExited runs even on panic, so a crashed processor still
			// triggers the deterministic exited-member desync check.
			defer shared.markExited(pid)
			if gate != nil {
				// Dormant until the activation cut's applier closes the
				// gate. A gate closed by the last exiting active task
				// instead (no cut reached the join point) leaves the pid
				// dormant: the program never runs on it.
				<-gate
			} else {
				<-ready
			}
			c := &cctx{
				pid:     pid,
				leaf:    e.tree.Leaf(pid),
				eng:     e,
				task:    t,
				tids:    tids,
				syncSeq: make(map[*model.Machine]int),
				shared:  shared,
			}
			// A newcomer's state starts at its activation cut: its views
			// as the core seeded them, its cut ordinal at the activation
			// point and its per-scope sync generations at the applier's
			// snapshot, which no later cut can replace before this
			// processor joins a root barrier. The tree is stable here —
			// every old member is parked at cut:out until the applier
			// (which closed this gate last) exits the window.
			shared.mu.Lock()
			if shared.mem.isDormant(pid) {
				shared.mu.Unlock()
				return nil
			}
			c.membersView = shared.mem.members(pid)
			c.failedView = shared.mem.failed(pid)
			if c.rootDone = shared.mem.joined[pid]; c.rootDone > 0 {
				for m, g := range shared.cutGens {
					c.syncSeq[m] = g
				}
			}
			shared.mu.Unlock()
			if e.Verify {
				c.vc = newVClock(p)
			}
			err := prog(c)
			if errors.Is(err, errCrashStop) || errors.Is(err, errLeave) {
				// The victim's own crash or departure is the experiment,
				// not a program failure; the run's verdict belongs to
				// the survivors.
				return nil
			}
			return err
		})
	}
	close(ready)
	err := sys.Wait()
	shared.mu.Lock()
	defer shared.mu.Unlock()
	// The watchdog's structured report beats the per-task ErrHalted noise
	// its Halt produced — but a nondeterminism verdict is the root cause
	// when a processor failed verification and left its peers stranded.
	if shared.desync != nil {
		err = shared.desync
		for _, taskErr := range sys.Errors() {
			var nd *ErrNondeterminism
			if errors.As(taskErr, &nd) {
				err = taskErr
				break
			}
		}
	}
	total := float64(time.Since(shared.started)) / float64(time.Microsecond)
	return &trace.Report{Steps: shared.steps, Total: total}, err
}
