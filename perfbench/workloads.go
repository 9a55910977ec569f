package main

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"hbspk/internal/collective"
	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/model"
	"hbspk/internal/plan"
	"hbspk/internal/pvm"
	_ "hbspk/internal/pvm/wiretrans" // registers the unix and tcp transports
)

// workload is one named benchmark input: how to run a session of it,
// how many warm-up ops precede the timed ones and, for the Concurrent
// engine, how many ops one engine run carries at most. The engine's
// report grows by one entry per superstep for the life of a run, so a
// session spreads its timed ops over runs of a bounded size; each run
// starts between two ops, outside any op's clock.
type workload struct {
	name    string
	warmup  int
	epoch   int
	session func(sessionCfg) (*session, error)
}

// The workloads. Their names are stable, because performance claims
// cite them; each is chosen so one layer does most of the work.
var workloads = []workload{
	// Barrier and membership bookkeeping dominate: 64 B messages, two
	// supersteps per op, no collectives, no transport.
	{"ring-inproc", 500, 10000, func(c sessionCfg) (*session, error) { return ringSession(c, false) }},
	// The same program over the unix transport: adds a frame write
	// and a synchronous ack to every batch of every superstep.
	{"ring-unix", 500, 10000, func(c sessionCfg) (*session, error) { return ringSession(c, true) }},
	// Payload copies, packing, the buffer pool and mailboxes dominate:
	// one op is eight planner-dispatched collectives of 1–256 KiB.
	{"bulk-inproc", strata, 256, bulkSession},
	// The deterministic simulator: one op is one Virtual-engine run
	// of the same eight collectives.
	{"virtual-sweep", strata, 0, virtualSession},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// Ring workloads.

// clusterRing returns each pid's successor and predecessor on the ring
// of its own cluster, in pid order.
func clusterRing(t *model.Tree) (succ, pred []int) {
	p := t.NProcs()
	succ, pred = make([]int, p), make([]int, p)
	for pid := 0; pid < p; pid++ {
		var ring []int
		for _, leaf := range t.Leaf(pid).Parent().Leaves() {
			ring = append(ring, t.Pid(leaf))
		}
		sort.Ints(ring)
		for i, q := range ring {
			if q == pid {
				succ[pid] = ring[(i+1)%len(ring)]
				pred[pid] = ring[(i+len(ring)-1)%len(ring)]
			}
		}
	}
	return succ, pred
}

// ringPayload is the payload one ring op delivers: every processor
// receives one message in each of two supersteps.
func ringPayload(p int) int64 { return int64(2 * p * ringMsgLen) }

// ringStep sends msg to dst and ends a superstep over scope, tracing
// both calls.
func ringStep(c hbsp.Ctx, pt *pidTrace, op, dst, tag int, msg []byte, scope *model.Machine, label string) error {
	s := pt.now()
	if err := c.Send(dst, tag, msg); err != nil {
		return err
	}
	s = pt.span(op, spanSend, s)
	if err := c.Sync(scope, label); err != nil {
		return err
	}
	pt.span(op, spanSync, s)
	return nil
}

// checkRing verifies a ring superstep delivered exactly the one
// expected message.
func checkRing(moves []hbsp.Message, src, tag int, want []byte) error {
	if len(moves) != 1 {
		return fmt.Errorf("ring: %d messages delivered, want 1", len(moves))
	}
	m := moves[0]
	if m.Src != src || m.Tag != tag || !bytes.Equal(m.Payload, want) {
		return fmt.Errorf("ring: wrong message from pid %d tag %d, want pid %d tag %d", m.Src, m.Tag, src, tag)
	}
	return nil
}

// unixTransport returns the registered unix transport's constructor.
func unixTransport() (func() (pvm.Transport, error), error) {
	for _, f := range pvm.TransportFactories() {
		if f.Name == "unix" && f.New != nil {
			return f.New, nil
		}
	}
	return nil, errors.New("no unix transport registered")
}

// ringSession runs the ring program on the Concurrent engine: per op,
// every processor sends one fresh 64 B message to its cluster-ring
// successor in a cluster-scoped superstep, then one to its global-ring
// successor in a root-scoped superstep.
func ringSession(cfg sessionCfg, wire bool) (*session, error) {
	t0 := time.Now()
	tree := benchTree()
	p := tree.NProcs()
	csucc, cpred := clusterRing(tree)
	in := newInstruments(cfg.traced)
	eng := hbsp.NewConcurrent(tree)
	if wire {
		newUnix, err := unixTransport()
		if err != nil {
			return nil, err
		}
		eng.Transport = in.transport(newUnix)
	}
	l := newLoop(cfg, nil)
	prog := func(first, last int, entered *time.Time) hbsp.Program {
		return func(c hbsp.Ctx) error {
			pid := c.Pid()
			if pid == 0 {
				*entered = time.Now()
			}
			pt := in.spans.attach(pid, func() float64 { return hbsp.NowOf(c) })
			cluster, root := c.Self().Parent(), c.Tree().Root
			gsucc, gpred := (pid+1)%p, (pid+p-1)%p
			wantA, wantB := make([]byte, ringMsgLen), make([]byte, ringMsgLen)
			for op := first; op < last; op++ {
				a, b := make([]byte, ringMsgLen), make([]byte, ringMsgLen)
				stamp(a, cfg.seed, op, pid, csucc[pid], 0)
				stamp(b, cfg.seed, op, pid, gsucc, 1)
				stamp(wantA, cfg.seed, op, cpred[pid], pid, 0)
				stamp(wantB, cfg.seed, op, gpred, pid, 1)
				var start time.Time
				var opStart float64
				if pid == 0 {
					l.begin(op)
					opStart = pt.now()
					start = time.Now()
				}
				if err := ringStep(c, pt, op, csucc[pid], 0, a, cluster, "ring-cluster"); err != nil {
					return err
				}
				if err := checkRing(c.Moves(), cpred[pid], 0, wantA); err != nil {
					l.fail(op, err)
				}
				if err := ringStep(c, pt, op, gsucc, 1, b, root, "ring-root"); err != nil {
					return err
				}
				if err := checkRing(c.Moves(), gpred, 1, wantB); err != nil {
					l.fail(op, err)
				}
				if pid == 0 {
					d := time.Since(start)
					pt.span(op, spanOp, opStart)
					l.end(op, d, ringPayload(p))
				}
				if l.done(op) {
					return nil
				}
			}
			return nil
		}
	}
	runSetup, err := runEpochs(eng, in, l, cfg.epoch, prog)
	s := l.finish(t0, err)
	s.runSetup = runSetup
	if cfg.traced && cfg.measure {
		s.layers = in.concurrentLayers(s, l, 0)
		s.spans = in.spans.all()
	}
	return s, nil
}

// runEpochs runs a Concurrent session's ops over successive engine
// runs of at most epoch ops each, until the loop stops, and returns
// the first run's set-up time: from the Run call to the program's
// first statement on processor 0.
func runEpochs(eng *hbsp.Concurrent, in *instruments, l *loop, epoch int,
	prog func(first, last int, entered *time.Time) hbsp.Program) (float64, error) {
	defer in.install()()
	var runSetup float64
	for first := 0; ; first += epoch {
		eng.Obsv = in.nextRun(first)
		var entered time.Time
		run := in.runner.now()
		call := time.Now()
		_, err := eng.Run(prog(first, first+epoch, &entered))
		in.runner.span(first, spanRun, run)
		if first == 0 {
			runSetup = micros(entered.Sub(call))
		}
		if err != nil || l.stopped() {
			return runSetup, err
		}
	}
}

// Bulk workloads.

// runRound calls the eight planner-dispatched collectives with pid's
// inputs, tracing each call.
func runRound(c hbsp.Ctx, p *plan.Planner, pt *pidTrace, op, n int, in *roundInputs) (*roundResults, error) {
	r := &roundResults{}
	var err error
	s := pt.now()
	next := func(fam int) error {
		if err != nil {
			return fmt.Errorf("%s: %w", familyNames[fam], err)
		}
		s = pt.span(op, spanColl+spanName(fam), s)
		return nil
	}
	r.bcast, err = collective.PlannedBcast(c, p, n, in.bcast)
	if err := next(famBcast); err != nil {
		return nil, err
	}
	r.gather, err = collective.PlannedGather(c, p, n, in.gather)
	if err := next(famGather); err != nil {
		return nil, err
	}
	r.scatter, err = collective.PlannedScatter(c, p, n, in.scatter)
	if err := next(famScatter); err != nil {
		return nil, err
	}
	r.allgather, err = collective.PlannedAllGather(c, p, n, in.allgather)
	if err := next(famAllGather); err != nil {
		return nil, err
	}
	r.vec[vecReduce], err = collective.PlannedReduce(c, p, in.vec[vecReduce], collective.Sum)
	if err := next(famReduce); err != nil {
		return nil, err
	}
	r.vec[vecAllReduce], err = collective.PlannedAllReduce(c, p, in.vec[vecAllReduce], collective.Sum)
	if err := next(famAllReduce); err != nil {
		return nil, err
	}
	r.vec[vecScan], err = collective.PlannedScan(c, p, in.vec[vecScan], collective.Sum)
	if err := next(famScan); err != nil {
		return nil, err
	}
	r.alltoall, err = collective.PlannedTotalExchange(c, p, n, in.alltoall)
	if err := next(famAllToAll); err != nil {
		return nil, err
	}
	return r, nil
}

// bulkSession runs rounds of the eight collectives on the Concurrent
// engine with one planner. Each op opens with a global barrier that is
// not timed, so every processor's inputs are generated before the
// clock starts and every result is checked after it stops.
func bulkSession(cfg sessionCfg) (*session, error) {
	t0 := time.Now()
	tree := benchTree()
	p, root := tree.NProcs(), tree.Pid(tree.FastestLeaf())
	planner := plan.New()
	in := newInstruments(cfg.traced)
	eng := hbsp.NewConcurrent(tree)
	eng.Plan = planner
	l := newLoop(cfg, planner)
	// Two rounds alternate: a processor generates round i+1 into one
	// while slower ones still check round i in the other, and the
	// op barrier keeps round i+2 from overwriting round i early.
	rounds := [2]*roundData{newRoundData(p, root), newRoundData(p, root)}
	prog := func(first, last int, entered *time.Time) hbsp.Program {
		return func(c hbsp.Ctx) error {
			pid := c.Pid()
			var pt *pidTrace
			if pid == 0 {
				*entered = time.Now()
				pt = in.spans.attach(pid, func() float64 { return hbsp.NowOf(c) })
			}
			sizes := newSizeStream(cfg.seed)
			sizes.skip(first)
			for op := first; op < last; op++ {
				rd := round{seed: cfg.seed, op: op, n: sizes.next()}
				d := rounds[op%2]
				d.generate(rd, pid)
				args := d.inputsFor(pid)
				if err := hbsp.SyncAll(c, "op"); err != nil {
					return err
				}
				var start time.Time
				var opStart float64
				if pid == 0 {
					l.begin(op)
					opStart = pt.now()
					start = time.Now()
				}
				res, err := runRound(c, planner, pt, op, rd.n, args)
				if err != nil {
					return err
				}
				if pid == 0 {
					d := time.Since(start)
					pt.span(op, spanOp, opStart)
					l.end(op, d, roundPayload(rd.n, p))
				}
				if err := d.check(rd, pid, res); err != nil {
					l.fail(op, err)
				}
				if l.done(op) {
					return nil
				}
			}
			return nil
		}
	}
	runSetup, err := runEpochs(eng, in, l, cfg.epoch, prog)
	s := l.finish(t0, err)
	s.runSetup = runSetup
	if cfg.traced && cfg.measure {
		// One op barrier per op is the benchmark's, not the round's.
		s.layers = in.concurrentLayers(s, l, 1)
		s.spans = in.spans.all()
	}
	return s, nil
}

// virtualSession runs the same rounds, one Virtual-engine run per op on
// the PVM fabric, with one planner serving every run. Inputs are
// generated before an op's clock starts and checked after it stops.
func virtualSession(cfg sessionCfg) (*session, error) {
	t0 := time.Now()
	tree := benchTree()
	p, root := tree.NProcs(), tree.Pid(tree.FastestLeaf())
	planner := plan.New()
	in := newInstruments(cfg.traced)
	l := newLoop(cfg, planner)
	d := newRoundData(p, root)
	sizes := newSizeStream(cfg.seed)
	// Processor 0's spans share the Run spans' wall clock: the engine
	// clock is modeled.
	pt0 := in.spans.attach(0, in.runner.now)
	defer in.install()()
	var (
		runSetups, perStep []float64
		totals             []float64
		steps              int
		err                error
	)
	for op := 0; ; op++ {
		rd := round{seed: cfg.seed, op: op, n: sizes.next()}
		args := make([]*roundInputs, p)
		res := make([]*roundResults, p)
		for pid := 0; pid < p; pid++ {
			d.generate(rd, pid)
		}
		for pid := range args {
			args[pid] = d.inputsFor(pid)
		}
		l.begin(op)
		var entered time.Time
		opStart := pt0.now()
		start := time.Now()
		run := in.runner.now()
		eng := hbsp.NewVirtual(tree, fabric.New(tree, fabric.PVM()))
		eng.Plan = planner
		eng.Obsv = in.rec
		rep, runErr := eng.Run(func(c hbsp.Ctx) error {
			pid := c.Pid()
			var pt *pidTrace
			if pid == 0 {
				entered = time.Now()
				pt = pt0
			}
			r, err := runRound(c, planner, pt, op, rd.n, args[pid])
			res[pid] = r
			return err
		})
		dur := time.Since(start)
		in.runner.span(op, spanRun, run)
		if runErr != nil {
			err = runErr
			break
		}
		pt0.span(op, spanOp, opStart)
		l.end(op, dur, roundPayload(rd.n, p))
		for pid := range res {
			if err := d.check(rd, pid, res[pid]); err != nil {
				l.fail(op, err)
				break
			}
		}
		totals = append(totals, rep.Total)
		steps += len(rep.Steps)
		runSetups = append(runSetups, micros(entered.Sub(start)))
		if n := len(rep.Steps); op >= cfg.warmup && n > 0 {
			perStep = append(perStep, micros(dur)/float64(n))
		}
		if l.done(op) {
			break
		}
	}
	s := l.finish(t0, err)
	s.runSetup = quantile(runSetups, 0.5)
	s.totals = totals
	if cfg.traced && cfg.measure {
		s.layers = in.virtualLayers(s, l, steps, perStep)
		s.spans = in.spans.all()
	}
	return s, nil
}
