// Package hbsp is HBSPlib: the superstep programming library of the
// HBSP^k model (§5.1), rebuilt in Go. Programs are SPMD functions run
// once per processor (leaf of the machine tree); they exchange bulk
// messages that become visible at the start of the next superstep, and
// they synchronize with scoped barriers: Sync(cluster) ends a
// super^i-step of that cluster's subtree, Sync(root) a global
// super^k-step.
//
// Two engines execute programs:
//
//   - Virtual runs the program on goroutines but charges a deterministic
//     virtual clock using package fabric — this is the paper's cost
//     model made executable, and the engine behind every experiment.
//   - Concurrent runs the program on the pvm substrate with real
//     parallelism and wall-clock timing; it exists to validate that the
//     algorithms are correct concurrent programs, not just costed ones.
//
// Both engines provide the HBSPlib enquiry and heterogeneity primitives:
// processor identity, machine ranking, speed, and workload shares.
package hbsp

import (
	"hbspk/internal/model"
)

// Message is one delivered bulk message.
type Message struct {
	// Src is the sending processor's pid; Tag is program-chosen.
	Src, Tag int
	// Payload is the message body. Receivers must treat it as
	// read-only: engines may share the sender's bytes.
	Payload []byte
}

// Ctx is a processor's view of the machine during a run: the HBSPlib
// API. A Ctx is confined to the goroutine running its program.
type Ctx interface {
	// Pid returns this processor's id (position among the leaves).
	Pid() int
	// NProcs returns the number of processors.
	NProcs() int
	// Tree returns the machine being run on.
	Tree() *model.Tree
	// Self returns this processor's leaf machine.
	Self() *model.Machine

	// Send queues a message for dst. It is delivered at the first
	// subsequent Sync whose scope contains both processors, and becomes
	// readable via Moves after that Sync returns.
	Send(dst, tag int, payload []byte) error
	// Moves returns the messages delivered by the last Sync, ordered by
	// sender pid and, within one sender, by send order.
	Moves() []Message

	// Charge accounts local computation: ops is work in fastest-machine
	// time units and is scaled by this machine's compute slowdown. The
	// charge lands in the w term of the enclosing superstep.
	Charge(ops float64)

	// Sync ends a super^i-step over the subtree of scope, which must be
	// an ancestor of (or equal to) this processor's leaf. Every
	// processor in that subtree must call Sync with the same scope for
	// the step to complete. While a scope member's death is
	// unacknowledged, Sync on that scope returns ErrPeerFailed, one dead
	// member per call, smallest pid first (every live member observes
	// each at the same sync generation); once all are acknowledged,
	// Syncs complete over the survivors.
	Sync(scope *model.Machine, label string) error

	// Failed returns the pids this processor knows to be dead, in
	// ascending order. The set grows exactly when a Sync returns
	// ErrPeerFailed, so all live members of a scope share the same view
	// at the same sync generation.
	Failed() []int

	// Members returns the pids this processor knows to be active
	// (activated at or before the run's start, or joined at a
	// membership cut), in ascending order. The set grows exactly when a
	// Sync returns ErrPeerJoined — mirroring Failed — so all live
	// members of a scope share the same view at the same sync
	// generation. Departed processors stay in Members and appear in
	// Failed; the live set is Members minus Failed.
	Members() []int

	// Save stages a checkpoint of named per-processor state. Staged
	// state is committed to the engine's CheckpointStore at the next
	// checkpointed superstep boundary (see CheckpointEvery); without a
	// store it is a no-op. The engine copies data at commit time.
	Save(key string, data []byte)

	// Restore returns the last committed checkpoint of the named state
	// from the engine's CheckpointStore, or false when none exists —
	// how a rerun resumes from the last checkpointed barrier.
	Restore(key string) ([]byte, bool)
}

// Program is an SPMD processor program.
type Program func(Ctx) error

// SyncAll synchronizes the whole machine: a super^k-step.
func SyncAll(c Ctx, label string) error { return c.Sync(c.Tree().Root, label) }

// Rank returns the processor's position in the fastest-first compute
// ranking (HBSPlib's heterogeneity enquiry: "functions return the rank
// of a processor").
func Rank(c Ctx) int { return c.Tree().Rank(c.Self()) }

// Speed returns the processor's compute slowdown (1 = fastest).
func Speed(c Ctx) float64 { return c.Self().CompSlowdown }

// Share returns the processor's balanced-workload fraction c_{i,j}
// (HBSPlib's "guide the programmer toward balanced workloads").
func Share(c Ctx) float64 { return c.Self().Share }

// Coordinator reports whether this processor is the coordinator of the
// given scope.
func Coordinator(c Ctx, scope *model.Machine) bool {
	return scope.Coordinator() == c.Self()
}
