package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hbspk/internal/model"
	"hbspk/internal/plan"
)

// benchTree is the machine every workload runs on: 8 processors in two
// heterogeneous 4-leaf clusters under a wide-area root (k = 2), so
// programs use both cluster-scoped and global barriers.
func benchTree() *model.Tree { return model.WideAreaGrid(2, 4, 12, 25000, 250000) }

// sessionCfg configures one session: one engine set-up, its warm-up
// ops and, when measure is set, the timed ops that follow.
type sessionCfg struct {
	seed    int64
	warmup  int
	epoch   int  // ops per Concurrent engine run
	measure bool // false: a set-up repetition that stops after warm-up
	dur     time.Duration
	maxOps  int // > 0: stop after this many timed ops instead of dur
	traced  bool
}

// meter is a snapshot of the process-wide counters the end-to-end
// metrics are deltas of, and of the timed ops and payload so far.
type meter struct {
	wall    time.Time
	cpu     time.Duration
	alloc   uint64
	plan    plan.Stats
	ops     int
	payload int64
}

// slices is how many slices a timed window is cut into. Rates are the
// median over slices, so a burst of interference from outside the
// process moves one slice, not the run's figure.
const slices = 10

func snapshot(p *plan.Planner) meter {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := meter{
		wall:  time.Now(),
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
	if p != nil {
		m.plan = p.Stats()
	}
	return m
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// loop is the closed-loop client of one session. Ops run one after
// another; processor 0 times each op and decides when the session
// stops. The decision for op i is stored before processor 0 enters
// op i's barriers, and every processor reads it after leaving a global
// barrier of op i, so all processors stop after the same op without
// any extra message.
type loop struct {
	cfg     sessionCfg
	planner *plan.Planner // snapshotted with the window, when set
	stopAt  atomic.Int64  // ops to run in total

	// Written by processor 0 (or the driving goroutine) only, read
	// after the engine's Run returns.
	setupEnd time.Time
	marks    []meter   // timed-window slice boundaries, both ends included
	ended    int       // ops completed, warm-up included
	lat      []float64 // timed ops' latency, µs
	payload  int64     // timed ops' delivered payload bytes

	mu       sync.Mutex
	failed   map[int]bool
	firstErr string
}

func newLoop(cfg sessionCfg, p *plan.Planner) *loop {
	l := &loop{cfg: cfg, planner: p, failed: map[int]bool{}}
	if cfg.measure {
		l.stopAt.Store(math.MaxInt64)
		l.lat = make([]float64, 0, 1<<16)
	} else {
		l.stopAt.Store(int64(cfg.warmup))
	}
	return l
}

// begin runs on processor 0 before op's clock starts.
func (l *loop) begin(op int) {
	if !l.cfg.measure || op < l.cfg.warmup {
		return
	}
	if op == l.cfg.warmup {
		l.marks = append(l.marks, snapshot(l.planner))
	} else if time.Since(l.marks[len(l.marks)-1].wall) >= l.cfg.dur/slices {
		l.mark()
	}
	timed := op - l.cfg.warmup + 1
	if (l.cfg.maxOps > 0 && timed >= l.cfg.maxOps) ||
		(l.cfg.maxOps <= 0 && op > l.cfg.warmup && time.Since(l.marks[0].wall) >= l.cfg.dur) {
		l.stopAt.Store(int64(op + 1))
	}
}

// mark closes a slice at the current op count.
func (l *loop) mark() {
	m := snapshot(l.planner)
	m.ops, m.payload = len(l.lat), l.payload
	l.marks = append(l.marks, m)
}

// end runs on processor 0 after op's clock stops.
func (l *loop) end(op int, d time.Duration, payload int64) {
	l.ended++
	if op == l.cfg.warmup-1 {
		l.setupEnd = time.Now()
	}
	if !l.cfg.measure || op < l.cfg.warmup {
		return
	}
	l.lat = append(l.lat, float64(d)/float64(time.Microsecond))
	l.payload += payload
	if l.done(op) {
		l.mark()
	}
}

// done reports whether op was the session's last.
func (l *loop) done(op int) bool { return int64(op+1) >= l.stopAt.Load() }

// stopped reports whether the session's last op has ended; read it
// after the engine run that ran the ops returns.
func (l *loop) stopped() bool { return int64(l.ended) >= l.stopAt.Load() }

// fail records a wrong result of op; the op counts as failed.
func (l *loop) fail(op int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.failed) == 0 {
		l.firstErr = fmt.Sprintf("op %d: %v", op, err)
	}
	l.failed[op] = true
}

// session is what one session measured.
type session struct {
	setup    time.Duration // session start until the first timed op can begin
	runSetup float64       // engine Run call until the program's first statement, µs
	ops      int           // ops run, warm-up included
	failed   int
	err      string // first failure, engine errors included

	lat     []float64
	payload int64
	marks   []meter

	totals []float64          // Virtual runs' modeled Report.Total, one per op
	layers map[string]float64 // per-layer metrics of a traced session
	spans  []span             // a traced session's spans
}

// finish converts the loop's record into a session.
func (l *loop) finish(t0 time.Time, runErr error) *session {
	s := &session{
		setup:   l.setupEnd.Sub(t0),
		lat:     l.lat,
		payload: l.payload,
		marks:   l.marks,
		ops:     l.ended,
		failed:  len(l.failed),
		err:     l.firstErr,
	}
	if runErr != nil {
		// The op the engine failed in never completed: count it.
		s.ops++
		s.failed++
		s.err = runErr.Error()
	}
	return s
}

// sliceMedian returns the median over the slices of marks of
// f(ops, wall seconds, delta of the slice's end on its start); slices
// without a completed op are skipped.
func sliceMedian(marks []meter, f func(ops, wall float64, from, to meter) float64) float64 {
	var xs []float64
	for i := 1; i < len(marks); i++ {
		from, to := marks[i-1], marks[i]
		if ops := to.ops - from.ops; ops > 0 {
			xs = append(xs, f(float64(ops), to.wall.Sub(from.wall).Seconds(), from, to))
		}
	}
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}
