package hbsp

import (
	"errors"
	"fmt"
	"sync"

	"hbspk/internal/pvm"
)

// The fault model (DESIGN.md §5.2): processors fail by crash-stop —
// they halt at a synchronization boundary, lose whatever that superstep
// had queued, and never act again. Failures are injected by a
// fabric.ChaosPlan and surfaced by both engines through one taxonomy:
//
//   - ErrPeerFailed: a peer of the sync scope is known dead. Every live
//     member of the scope observes the error exactly once, at the same
//     per-scope sync generation, and later Syncs on that scope complete
//     over the survivors only.
//   - ErrTimeout: a detection deadline expired with the peer's fate
//     unknown (partitioned, or message loss exhausted its retries).
//   - ErrDesync: the program itself is malformed SPMD (unchanged from
//     the desync watchdog's contract).

// ErrPeerFailed reports that a scope member is dead: Pid names the
// failed processor, Step the sync ordinal at which it failed, and Cause
// what killed it. Detect it with errors.As:
//
//	var pf *hbsp.ErrPeerFailed
//	if errors.As(err, &pf) { ... pf.Pid ... }
type ErrPeerFailed struct {
	Pid  int
	Step int
	// Cause describes the failure ("crash-stop", "exited", ...).
	Cause string
}

func (e *ErrPeerFailed) Error() string {
	return fmt.Sprintf("hbsp: peer p%d failed at step %d (%s)", e.Pid, e.Step, e.Cause)
}

// ErrPeerJoined reports elastic membership growth: a processor
// activated at the last membership cut is now part of the sync scope.
// Every member of the scope — including the newcomer itself — observes
// the join as this error at the same per-scope sync generation, exactly
// once per join event, which is what keeps barrier generations aligned
// across old and new members without any renumbering. Programs treat it
// like ErrPeerFailed's dual: refresh the membership view (Ctx.Members)
// and retry the Sync.
type ErrPeerJoined struct {
	// Pid is the joined processor (the smallest unacknowledged one when
	// several joined the scope; the notice acknowledges all of them).
	Pid int
	// Step is the completed-global-barrier count at which it activated.
	Step int
}

func (e *ErrPeerJoined) Error() string {
	return fmt.Sprintf("hbsp: peer p%d joined at global step %d", e.Pid, e.Step)
}

// ErrTimeout is the detection-deadline error, shared with the pvm
// substrate so errors.Is matches across layers.
var ErrTimeout = pvm.ErrTimeout

// errCrashStop is what a chaos-killed processor's own Sync returns: the
// victim's program unwinds with it, and the engines filter it out of
// the run verdict (an injected crash is the experiment, not a program
// bug — the run's outcome is decided by the survivors).
var errCrashStop = errors.New("hbsp: processor crash-stopped by chaos plan")

// IsCrashStop reports whether err is the victim-side crash-stop error.
func IsCrashStop(err error) bool { return errors.Is(err, errCrashStop) }

// errLeave is the victim side of an orderly departure (a churn fate's
// LeaveAt): the leaver's program unwinds with it and the engines filter
// it from the run verdict, exactly like errCrashStop. Survivors see the
// departure as ErrPeerFailed with Cause "leave".
var errLeave = errors.New("hbsp: processor left by churn plan")

// IsLeave reports whether err is the victim-side orderly-leave error.
func IsLeave(err error) bool { return errors.Is(err, errLeave) }

// defaultDetectFactor scales the predicted step cost into a detection
// deadline when the engine's DetectFactor is unset.
const defaultDetectFactor = 3.0

// failInfo is the engine-side record of one dead processor.
type failInfo struct {
	step  int
	cause string
}

// CheckpointStore holds committed superstep checkpoints: per processor,
// the last committed value of every registered key plus the commit
// ordinal. A store outlives a run — rerun the program with the same
// store and Ctx.Restore hands each processor its last checkpointed
// state, so recovery resumes from the last checkpointed barrier instead
// of from scratch. The store is safe for concurrent use.
type CheckpointStore struct {
	mu        sync.Mutex
	committed map[int]map[string][]byte
	lastStep  map[int]int
}

// NewCheckpointStore returns an empty store.
func NewCheckpointStore() *CheckpointStore {
	return &CheckpointStore{
		committed: make(map[int]map[string][]byte),
		lastStep:  make(map[int]int),
	}
}

// commit folds one processor's staged saves into the committed state,
// returning the number of bytes written. step is the engine's commit
// ordinal for LastStep.
func (s *CheckpointStore) commit(pid, step int, staged map[string][]byte) int {
	if len(staged) == 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.committed[pid]
	if m == nil {
		m = make(map[string][]byte)
		s.committed[pid] = m
	}
	n := 0
	for k, v := range staged {
		m[k] = append([]byte(nil), v...)
		n += len(v)
	}
	s.lastStep[pid] = step
	return n
}

// get returns the committed value for (pid, key).
func (s *CheckpointStore) get(pid int, key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.committed[pid][key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// LastStep returns the commit ordinal of pid's newest checkpoint, or -1
// if the processor has never been checkpointed.
func (s *CheckpointStore) LastStep(pid int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.lastStep[pid]; !ok {
		return -1
	}
	return s.lastStep[pid]
}
