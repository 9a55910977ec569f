package hbsp

import (
	"errors"
	"strings"
	"testing"
	"time"

	"hbspk/internal/model"
)

// desyncTree builds a flat 4-leaf cluster for the watchdog tests.
func desyncTree(t *testing.T) *model.Tree {
	t.Helper()
	root := model.NewCluster("root", []*model.Machine{
		model.NewLeaf("p0"), model.NewLeaf("p1"),
		model.NewLeaf("p2"), model.NewLeaf("p3"),
	}, model.WithSync(1))
	return model.MustNew(root, 1).Normalize()
}

// TestConcurrentDesyncExitedMember is the regression for the
// silent-deadlock gap: before the watchdog, a processor returning early
// while the rest sync left the run blocked forever (this test only
// completed by -timeout panic). Now the exited-member check fires
// deterministically, well before any stall timeout.
func TestConcurrentDesyncExitedMember(t *testing.T) {
	tree := desyncTree(t)
	eng := NewConcurrent(tree)
	eng.DesyncTimeout = 30 * time.Second // deterministic path must not need the stall clock

	start := time.Now()
	_, err := eng.Run(func(ctx Ctx) error {
		if ctx.Pid() == 1 { //hbspk:ignore pidtaint (deliberate desync under test)
			return nil // p1 exits without ever syncing
		}
		return ctx.Sync(tree.Root, "step")
	})
	if !errors.Is(err, ErrDesync) {
		t.Fatalf("Run = %v, want ErrDesync", err)
	}
	if !strings.Contains(err.Error(), "p1") || !strings.Contains(err.Error(), "exited") {
		t.Errorf("error %q does not name the exited processor", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("exited-member desync took %v; should not wait for the stall timeout", elapsed)
	}
}

// TestConcurrentDesyncStalledBarriers covers the mismatched-barrier
// shape: every processor blocks, but on incompatible waits, so no
// barrier can ever complete and nobody exits. p0 sits at a second
// cluster-A sync that p1 will never join, while p1, p2 and p3 sit at a
// root sync that p0 can never reach — a cyclic wait the deterministic
// exited-member check cannot see, only the stall clock.
func TestConcurrentDesyncStalledBarriers(t *testing.T) {
	a := model.NewCluster("A", []*model.Machine{model.NewLeaf("a0"), model.NewLeaf("a1")}, model.WithSync(1))
	b := model.NewCluster("B", []*model.Machine{model.NewLeaf("b0"), model.NewLeaf("b1")}, model.WithSync(1))
	tree := model.MustNew(model.NewCluster("top", []*model.Machine{a, b}, model.WithSync(1)), 1).Normalize()
	scopeA := tree.Root.Children[0]
	eng := NewConcurrent(tree)
	eng.DesyncTimeout = 200 * time.Millisecond

	_, err := eng.Run(func(ctx Ctx) error {
		// Deliberate desync under test: every Sync below is pid-divergent.
		if ctx.Pid() == 0 { //hbspk:ignore pidtaint (deliberate desync under test)
			if err := ctx.Sync(scopeA, "inner"); err != nil {
				return err
			}
			// p1 never joins this second inner sync.
			return ctx.Sync(scopeA, "inner-again")
		}
		if ctx.Pid() == 1 { //hbspk:ignore pidtaint (deliberate desync under test)
			if err := ctx.Sync(scopeA, "inner"); err != nil {
				return err
			}
		}
		// p0 never reaches this root sync.
		return ctx.Sync(tree.Root, "step")
	})
	if !errors.Is(err, ErrDesync) {
		t.Fatalf("Run = %v, want ErrDesync", err)
	}
	// The report must name the lagging processor and where everyone waits.
	if !strings.Contains(err.Error(), "waiting:") || !strings.Contains(err.Error(), "lagging:") {
		t.Errorf("error %q lacks the waiting/lagging report", err)
	}
	if !strings.Contains(err.Error(), "p0") {
		t.Errorf("error %q does not name the lagging processor p0", err)
	}
}

// TestConcurrentDesyncDisabled checks the opt-out: a negative timeout
// must not spawn the watchdog, and a well-formed program still runs.
func TestConcurrentDesyncDisabled(t *testing.T) {
	tree := desyncTree(t)
	eng := NewConcurrent(tree)
	eng.DesyncTimeout = -1

	ran := 0
	rep, err := eng.Run(func(ctx Ctx) error {
		if err := ctx.Sync(tree.Root, "step"); err != nil {
			return err
		}
		if ctx.Pid() == 0 {
			ran++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran != 1 || len(rep.Steps) != 1 {
		t.Errorf("ran=%d steps=%d, want 1 and 1", ran, len(rep.Steps))
	}
}

// TestConcurrentWellFormedUnderWatchdog makes sure the watchdog never
// fires on a healthy multi-step program even with a tight timeout:
// progress between barriers resets the stall clock.
func TestConcurrentWellFormedUnderWatchdog(t *testing.T) {
	tree := desyncTree(t)
	eng := NewConcurrent(tree)
	eng.DesyncTimeout = 100 * time.Millisecond

	rep, err := eng.Run(func(ctx Ctx) error {
		for step := 0; step < 20; step++ {
			next := (ctx.Pid() + 1) % ctx.NProcs()
			if err := ctx.Send(next, step, []byte{byte(step)}); err != nil {
				return err
			}
			if err := ctx.Sync(tree.Root, "ring"); err != nil {
				return err
			}
			if got := len(ctx.Moves()); got != 1 {
				return errors.New("lost a message under the watchdog")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rep.Steps) != 20 {
		t.Errorf("steps = %d, want 20", len(rep.Steps))
	}
}
