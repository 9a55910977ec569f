package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hbspk/internal/obsv"
	"hbspk/internal/pvm"
)

// The traced run. Spans are recorded only at this benchmark's own call
// sites — around each op, each engine Run, and each Send, Sync and
// Planned* call the programs make — plus a pvm.Transport decorator and
// a process-wide pvm.Observer. Nothing inside the library is touched,
// and hbsp.Ctx is never wrapped: the collectives type-assert the
// engine's concrete Ctx for planner feedback, so a wrapper would change
// what is being measured.

// spanName identifies what a span covers.
type spanName uint8

const (
	spanOp spanName = iota
	spanSend
	spanSync
	spanRun  // one engine Run, recorded by the driving goroutine
	spanColl // + family index: one span per Planned* call
)

// runnerPid is the span buffer of the goroutine that calls Run.
const runnerPid = -1

func (n spanName) String() string {
	switch {
	case n == spanOp:
		return "op"
	case n == spanSend:
		return "send"
	case n == spanSync:
		return "sync"
	case n == spanRun:
		return "run"
	case n >= spanColl && int(n-spanColl) < numFamilies:
		return familyNames[n-spanColl]
	}
	return "?"
}

// span is one recorded interval on its processor's span clock (µs).
// Every span of an op shares the op's id; the op span is the parent of
// its op's other spans. A Run span carries the first op it ran.
type span struct {
	op         int32
	pid        int16
	name       spanName
	start, end float64
}

// spansPerPid bounds each processor's span buffer (about 2 MiB): a
// long traced run keeps each processor's most recent spansPerPid
// spans, so they overlap the recorder's ring, which also keeps the
// most recent events.
const spansPerPid = 1 << 16

// tracer holds one traced session's span buffers, one per processor,
// each written only by that processor's goroutine.
type tracer struct {
	mu   sync.Mutex
	pids map[int]*pidTrace
}

// pidTrace is one processor's span ring and clock.
type pidTrace struct {
	pid   int
	clock func() float64
	spans []span
	next  int // ring slot of the next span once spans is full
}

func newTracer(traced bool) *tracer {
	if !traced {
		return nil
	}
	return &tracer{pids: map[int]*pidTrace{}}
}

// attach returns pid's span buffer, reading time from clock; nil (a
// no-op buffer) when the session is untraced. Re-attaching in a later
// engine run keeps the buffer and swaps in that run's clock.
func (t *tracer) attach(pid int, clock func() float64) *pidTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	pt := t.pids[pid]
	if pt == nil {
		pt = &pidTrace{pid: pid, spans: make([]span, 0, 1024)}
		t.pids[pid] = pt
	}
	pt.clock = clock
	return pt
}

func (pt *pidTrace) now() float64 {
	if pt == nil {
		return 0
	}
	return pt.clock()
}

// span records [start, now) under op and returns now, the next span's
// start.
func (pt *pidTrace) span(op int, name spanName, start float64) float64 {
	if pt == nil {
		return 0
	}
	end := pt.clock()
	s := span{op: int32(op), pid: int16(pt.pid), name: name, start: start, end: end}
	if len(pt.spans) < spansPerPid {
		pt.spans = append(pt.spans, s)
	} else {
		pt.spans[pt.next] = s
		pt.next = (pt.next + 1) % spansPerPid
	}
	return end
}

// all returns every recorded span; call after the session's runs end.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	var out []span
	for _, pt := range t.pids {
		out = append(out, pt.spans...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pid != out[j].pid {
			return out[i].pid < out[j].pid
		}
		return out[i].start < out[j].start
	})
	return out
}

// writeSpans writes the spans of the last keepOps recorded ops as JSON
// lines: op spans carry id "op<N>" and Run spans "run<N>" (N its first
// op); every other span names its op span as parent.
func writeSpans(path string, spans []span, keepOps int) error {
	lastOp := int32(-1)
	for _, s := range spans {
		lastOp = max(lastOp, s.op)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type rec struct {
		ID     string  `json:"id"`
		Parent string  `json:"parent,omitempty"`
		Op     int32   `json:"op"`
		Pid    int16   `json:"pid"`
		Name   string  `json:"name"`
		Start  float64 `json:"start_us"`
		End    float64 `json:"end_us"`
	}
	seq := 0
	for _, s := range spans {
		if s.op <= lastOp-int32(keepOps) {
			continue
		}
		r := rec{Op: s.op, Pid: s.pid, Name: s.name.String(), Start: s.start, End: s.end}
		switch s.name {
		case spanOp:
			r.ID = fmt.Sprintf("op%d", s.op)
		case spanRun:
			r.ID = fmt.Sprintf("run%d", s.op)
		default:
			seq++
			r.ID = fmt.Sprintf("op%d.p%d.%d", s.op, s.pid, seq)
			r.Parent = fmt.Sprintf("op%d", s.op)
		}
		if err := enc.Encode(r); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// depthBins bounds the exact mailbox-depth histogram; deeper mailboxes
// land in the last bin.
const depthBins = 1024

// counter is the traced run's pvm.Observer (and FrameObserver): exact
// counts of pool draws, mailbox depths and transport frames. pvm's
// observer is process-wide, so it is installed only for a traced
// session and removed afterwards.
type counter struct {
	poolHit, poolMiss  atomic.Int64
	depth              [depthBins]atomic.Int64
	frames, frameBytes atomic.Int64
}

func (c *counter) MailboxDepth(d int) { c.depth[min(max(d, 0), depthBins-1)].Add(1) }

func (c *counter) PoolDraw(hit bool) {
	if hit {
		c.poolHit.Add(1)
	} else {
		c.poolMiss.Add(1)
	}
}

func (c *counter) TransportFrame(_ string, _ bool, frameBytes int) {
	c.frames.Add(1)
	c.frameBytes.Add(int64(frameBytes))
}

// depthQuantile returns the q-quantile of the observed mailbox depths.
func (c *counter) depthQuantile(q float64) float64 {
	var total int64
	for i := range c.depth {
		total += c.depth[i].Load()
	}
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total-1)) + 1
	var seen int64
	for i := range c.depth {
		if seen += c.depth[i].Load(); seen >= rank {
			return float64(i)
		}
	}
	return depthBins - 1
}

// wireStats accumulates a traced session's transport Deliver timings.
type wireStats struct {
	mu    sync.Mutex
	calls int64
	durs  []float64 // µs, the first spansPerPid calls
}

// timedTransport decorates a pvm.Transport, timing every Deliver: for
// the wire transports that is the frame write plus the ack round trip.
type timedTransport struct {
	pvm.Transport
	st *wireStats
}

func (t *timedTransport) Deliver(dst pvm.TID, ms []pvm.Message) error {
	start := time.Now()
	err := t.Transport.Deliver(dst, ms)
	d := micros(time.Since(start))
	t.st.mu.Lock()
	t.st.calls++
	if len(t.st.durs) < spansPerPid {
		t.st.durs = append(t.st.durs, d)
	}
	t.st.mu.Unlock()
	return err
}

// instruments are the traced session's collectors; every field is nil
// in an untraced session.
type instruments struct {
	spans *tracer
	// runner is the Run spans' buffer, on wall time since the session
	// began.
	runner *pidTrace
	count  *counter
	wire   *wireStats
	// rec is the current engine run's recorder. A Concurrent session
	// runs its ops over several engine runs, each with a fresh
	// recorder because each run restarts the engine clock; the
	// counters of finished runs are folded into done, and runFirst is
	// the first op of the current run.
	rec      *obsv.Recorder
	done     recCounts
	runFirst int
}

// recCounts are the recorder counters the per-layer metrics use.
type recCounts struct{ steps, msgs, bytes int64 }

func (in *instruments) counts() recCounts {
	reg := in.rec.Metrics()
	return recCounts{
		steps: in.done.steps + reg.Counter("hbspk_supersteps_total").Value(),
		msgs:  in.done.msgs + reg.Counter("hbspk_messages_total").Value(),
		bytes: in.done.bytes + reg.Counter("hbspk_bytes_total").Value(),
	}
}

func newInstruments(traced bool) *instruments {
	if !traced {
		return &instruments{}
	}
	t := newTracer(true)
	base := time.Now()
	return &instruments{
		spans:  t,
		runner: t.attach(runnerPid, func() float64 { return micros(time.Since(base)) }),
		count:  &counter{},
		wire:   &wireStats{},
		rec:    newRecorder(),
	}
}

// newRecorder keeps no delivery spans (metrics still count every
// delivery), so its ring holds the barrier and superstep spans of the
// last few hundred to few thousand ops.
func newRecorder() *obsv.Recorder { return obsv.New(obsv.Config{Capacity: 1 << 17, SampleEvery: -1}) }

// nextRun gives the engine run starting at op first a fresh recorder.
func (in *instruments) nextRun(first int) *obsv.Recorder {
	if in.rec == nil {
		return nil
	}
	if first > 0 {
		in.done = in.counts()
		in.rec = newRecorder()
	}
	in.runFirst = first
	return in.rec
}

// transport wraps a transport constructor so a traced session times
// every Deliver.
func (in *instruments) transport(newTr func() (pvm.Transport, error)) func() (pvm.Transport, error) {
	if in.wire == nil {
		return newTr
	}
	return func() (pvm.Transport, error) {
		tr, err := newTr()
		if err != nil {
			return nil, err
		}
		return &timedTransport{Transport: tr, st: in.wire}, nil
	}
}

// install hooks the process-wide pvm observer for a traced session and
// returns its removal.
func (in *instruments) install() func() {
	if in.count == nil {
		return func() {}
	}
	pvm.SetObserver(in.count)
	return func() { pvm.SetObserver(nil) }
}
