package pvm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// TID identifies a spawned task, PVM-style.
type TID int

// AnySource and AnyTag are the wildcards of selective receive.
const (
	AnySource TID = -1
	AnyTag    int = -1
)

// Message is a delivered packed buffer. The payload aliases the
// sender's wire buffer: treat it as read-only, and call Release once
// done with it to return the backing to the arena.
type Message struct {
	Src TID
	Tag int
	buf []byte
	w   *wire
	seq uint64 // per-mailbox arrival stamp, orders wildcard matches
}

// Buffer returns an unpacker positioned at the start of the message.
// The unpacker aliases the message's wire bytes: it is only valid
// until Release, and must not itself be sent.
func (m Message) Buffer() *Buffer { return bufferFrom(m.buf) }

// Len returns the message's wire length in bytes.
func (m Message) Len() int { return len(m.buf) }

// Release returns the message's wire buffer to the arena. Call it at
// most once, after the payload (and anything unpacked from it, which
// aliases the same bytes) is no longer needed. A multicast payload is
// shared: the backing recycles only when every destination releases.
func (m Message) Release() { m.w.release() }

// ErrHalted is returned by blocking operations after Halt.
var ErrHalted = errors.New("pvm: system halted")

// ErrTimeout is returned by deadline-bounded blocking operations
// (RecvTimeout, RecvContext, BarrierTimeout) when the deadline expires
// before the operation completes.
var ErrTimeout = errors.New("pvm: operation timed out")

// ErrCanceled is returned by Barrier waiters whose barrier was torn
// down with CancelBarrier before it completed.
var ErrCanceled = errors.New("pvm: barrier canceled")

// System is the virtual machine: it spawns tasks, routes messages and
// hosts group barriers.
type System struct {
	mu       sync.RWMutex
	tasks    map[TID]*Task
	nextTID  TID
	halted   bool
	wg       sync.WaitGroup
	barriers map[string]*barrier
	groups   map[string]*group

	errMu sync.Mutex
	errs  []error

	// transport, when non-nil, owns message delivery (SetTransport).
	// Written once before any Spawn; read without synchronization on
	// the send path.
	transport Transport
}

// NewSystem returns an empty virtual machine.
func NewSystem() *System {
	return &System{
		tasks:    make(map[TID]*Task),
		barriers: make(map[string]*barrier),
	}
}

// Spawn starts fn as a new task and returns its TID. A panic inside fn
// is recovered and reported by Wait; an error return is likewise
// collected.
func (s *System) Spawn(name string, fn func(*Task) error) TID {
	s.mu.Lock()
	tid := s.nextTID
	s.nextTID++
	t := &Task{tid: tid, name: name, sys: s, halted: s.halted}
	t.cond = sync.NewCond(&t.sendMu)
	t.queues = make(map[mkey]*msgq)
	s.tasks[tid] = t
	s.mu.Unlock()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				s.report(fmt.Errorf("pvm: task %d (%s) panicked: %v", tid, name, r))
			}
		}()
		if err := fn(t); err != nil {
			s.report(fmt.Errorf("pvm: task %d (%s): %w", tid, name, err))
		}
	}()
	return tid
}

func (s *System) report(err error) {
	s.errMu.Lock()
	s.errs = append(s.errs, err)
	s.errMu.Unlock()
}

// Wait blocks until every spawned task has returned and reports the
// first collected error.
func (s *System) Wait() error {
	s.wg.Wait()
	s.errMu.Lock()
	defer s.errMu.Unlock()
	if len(s.errs) > 0 {
		return s.errs[0]
	}
	return nil
}

// Errors returns all collected task errors after Wait.
func (s *System) Errors() []error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return append([]error(nil), s.errs...)
}

// Halt wakes every blocked receive and barrier with ErrHalted. Used to
// tear down a wedged system in tests and error paths.
func (s *System) Halt() {
	s.mu.Lock()
	s.halted = true
	tasks := make([]*Task, 0, len(s.tasks))
	for _, t := range s.tasks {
		tasks = append(tasks, t)
	}
	barriers := make([]*barrier, 0, len(s.barriers))
	for _, b := range s.barriers {
		barriers = append(barriers, b)
	}
	s.mu.Unlock()
	for _, t := range tasks {
		t.sendMu.Lock()
		t.halted = true
		t.cond.Broadcast()
		t.sendMu.Unlock()
	}
	for _, b := range barriers {
		b.mu.Lock()
		b.halted = true
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

func (s *System) task(tid TID) (*Task, error) {
	s.mu.RLock()
	t, ok := s.tasks[tid]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("pvm: no such task %d", tid)
	}
	return t, nil
}

// Task is one spawned process: a goroutine plus a selective-receive
// mailbox. The mailbox is split in two so senders and the receiver do
// not serialize: senders append to a staging slice under sendMu, the
// receiving side drains the staging into per-(src, tag) indexed queues
// under recvMu and matches against the index.
type Task struct {
	tid  TID
	name string
	sys  *System

	// Sender side: the staging queue, arrival stamping, the halt flag
	// and the wakeup cond live under sendMu. seq doubles as the staging
	// version a parked receiver watches for.
	sendMu sync.Mutex
	cond   *sync.Cond
	staged []Message
	seq    uint64
	halted bool

	// Receiver side: recvMu serializes receivers and guards the index.
	// Lock order is recvMu before sendMu; sendMu is never held while
	// taking recvMu.
	queues map[mkey]*msgq
	spare  []Message // recycled staging backing, ping-ponged with staged
	qfree  []*msgq   // recycled queue records (wire tags churn per superstep)
	recvMu sync.Mutex
}

// TID returns the task's identity.
func (t *Task) TID() TID { return t.tid }

// System returns the virtual machine that spawned the task. Relay
// tasks bridging remote processes use it to halt the whole system when
// their peer's link drops.
func (t *Task) System() *System { return t.sys }

// Name returns the task's spawn name.
func (t *Task) Name() string { return t.name }

// Send enqueues the buffer at dst without copying: ownership of the
// packed bytes transfers to the receiver, which releases them back to
// the arena. Delivery is reliable and per-sender ordered. A buffer can
// be sent only once, and must not be packed into afterwards (the
// bufown analyzer enforces both). Sending to a halted system or an
// unknown task returns an error.
func (t *Task) Send(dst TID, tag int, buf *Buffer) error {
	target, err := t.sys.task(dst)
	if err != nil {
		return err
	}
	w, err := buf.adopt()
	if err != nil {
		return err
	}
	m := Message{Src: t.tid, Tag: tag, buf: buf.data, w: w}
	if tr := t.sys.transport; tr != nil {
		return tr.Deliver(dst, []Message{m})
	}
	return target.deliverOne(m)
}

// SendBatch enqueues one message per buffer at dst under a single
// mailbox lock acquisition, preserving slice order. Each buffer is
// adopted exactly as in Send.
func (t *Task) SendBatch(dst TID, tag int, bufs []*Buffer) error {
	if len(bufs) == 0 {
		return nil
	}
	target, err := t.sys.task(dst)
	if err != nil {
		return err
	}
	ms := make([]Message, len(bufs))
	for i, buf := range bufs {
		w, err := buf.adopt()
		if err != nil {
			return err
		}
		ms[i] = Message{Src: t.tid, Tag: tag, buf: buf.data, w: w}
	}
	if tr := t.sys.transport; tr != nil {
		return tr.Deliver(dst, ms)
	}
	return target.deliverBatch(ms)
}

// Mcast sends the buffer to every listed destination (PVM's
// pvm_mcast), skipping the sender itself. All destinations share one
// wire buffer, reference-counted by the fan-out; no per-destination
// copy is made. Every destination is resolved up front, so an unknown
// TID fails the multicast before any delivery.
func (t *Task) Mcast(dsts []TID, tag int, buf *Buffer) error {
	var arr [16]*Task
	targets := arr[:0]
	for _, d := range dsts {
		if d == t.tid {
			continue
		}
		target, err := t.sys.task(d)
		if err != nil {
			return err
		}
		targets = append(targets, target)
	}
	if len(targets) == 0 {
		return nil // nothing adopted; the buffer stays usable
	}
	w, err := buf.adopt()
	if err != nil {
		return err
	}
	w.retain(int32(len(targets) - 1))
	if tr := t.sys.transport; tr != nil {
		// Deliver consumes one reference per call, error or not; a
		// failed fan-out only has the untried tail left to drop.
		var firstErr error
		for _, target := range targets {
			if firstErr != nil {
				w.release()
				continue
			}
			m := Message{Src: t.tid, Tag: tag, buf: buf.data, w: w}
			if err := tr.Deliver(target.tid, []Message{m}); err != nil {
				firstErr = err
			}
		}
		return firstErr
	}
	for i, target := range targets {
		if err := target.deliverOne(Message{Src: t.tid, Tag: tag, buf: buf.data, w: w}); err != nil {
			// The undelivered tail's references die with the error.
			for j := i; j < len(targets); j++ {
				w.release()
			}
			return err
		}
	}
	return nil
}

// Recv blocks until a message matching src and tag (either may be a
// wildcard) is available and removes it from the mailbox. Matching
// respects arrival order among matching messages.
func (t *Task) Recv(src TID, tag int) (Message, error) {
	for {
		m, ver, ok := t.recvOnce(src, tag)
		if ok {
			return m, nil
		}
		t.sendMu.Lock()
		for t.seq == ver && !t.halted {
			t.cond.Wait()
		}
		halted := t.halted && t.seq == ver
		t.sendMu.Unlock()
		if halted {
			return Message{}, ErrHalted
		}
	}
}

// RecvTimeout is Recv with a deadline: it blocks until a matching
// message arrives, the system halts, or d elapses, in which case it
// returns ErrTimeout. A non-positive d degrades to a non-blocking
// probe-and-fail.
func (t *Task) RecvTimeout(src TID, tag int, d time.Duration) (Message, error) {
	deadline := time.Now().Add(d)
	var timer *time.Timer
	if d > 0 {
		// The timer only wakes the cond; the loop re-checks the clock.
		timer = time.AfterFunc(d, func() {
			t.sendMu.Lock()
			t.cond.Broadcast()
			t.sendMu.Unlock()
		})
		defer timer.Stop()
	}
	for {
		m, ver, ok := t.recvOnce(src, tag)
		if ok {
			return m, nil
		}
		t.sendMu.Lock()
		for t.seq == ver && !t.halted && time.Now().Before(deadline) {
			t.cond.Wait()
		}
		halted := t.halted && t.seq == ver
		t.sendMu.Unlock()
		if halted {
			return Message{}, ErrHalted
		}
		if !time.Now().Before(deadline) {
			// One final drain so a message racing the deadline wins.
			if m, _, ok := t.recvOnce(src, tag); ok {
				return m, nil
			}
			return Message{}, fmt.Errorf("pvm: recv(src=%d, tag=%d) after %v: %w", src, tag, d, ErrTimeout)
		}
	}
}

// RecvContext is Recv bounded by a context: it returns the context's
// error (wrapped with ErrTimeout for deadline expiry) once ctx is done.
func (t *Task) RecvContext(ctx context.Context, src TID, tag int) (Message, error) {
	stop := context.AfterFunc(ctx, func() {
		t.sendMu.Lock()
		t.cond.Broadcast()
		t.sendMu.Unlock()
	})
	defer stop()
	for {
		m, ver, ok := t.recvOnce(src, tag)
		if ok {
			return m, nil
		}
		t.sendMu.Lock()
		for t.seq == ver && !t.halted && ctx.Err() == nil {
			t.cond.Wait()
		}
		halted := t.halted && t.seq == ver
		t.sendMu.Unlock()
		if halted {
			return Message{}, ErrHalted
		}
		if err := ctx.Err(); err != nil {
			// One final drain so a message racing the cancellation wins.
			if m, _, ok := t.recvOnce(src, tag); ok {
				return m, nil
			}
			if errors.Is(err, context.DeadlineExceeded) {
				return Message{}, fmt.Errorf("pvm: recv(src=%d, tag=%d): %w: %w", src, tag, ErrTimeout, err)
			}
			return Message{}, fmt.Errorf("pvm: recv(src=%d, tag=%d): %w", src, tag, err)
		}
	}
}

// TryRecv is Recv without blocking; ok reports whether a match existed.
func (t *Task) TryRecv(src TID, tag int) (Message, bool) {
	m, _, ok := t.recvOnce(src, tag)
	return m, ok
}

// Probe reports whether a matching message is queued, without consuming
// it (PVM's pvm_probe).
func (t *Task) Probe(src TID, tag int) bool {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	t.drainLocked()
	_, q := t.findLocked(src, tag)
	return q != nil
}

// Pending returns the number of queued messages.
func (t *Task) Pending() int {
	t.recvMu.Lock()
	defer t.recvMu.Unlock()
	n := 0
	for _, q := range t.queues {
		n += q.len()
	}
	t.sendMu.Lock()
	n += len(t.staged)
	t.sendMu.Unlock()
	return n
}

type barrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	arrived  int
	gen      int
	halted   bool
	canceled bool
	// deposits collects the current generation's BarrierExchange
	// payloads; on completion they move into results keyed by the
	// generation they belong to, reference-counted so late wakers of an
	// already-recycled barrier still find their round's data.
	deposits map[TID][]byte
	results  map[int]*barrierResult
}

type barrierResult struct {
	data    map[TID][]byte
	readers int
}

// takeResult hands one waiter its generation's gathered deposits,
// freeing the round once every participant has collected. Caller holds
// b.mu.
func (b *barrier) takeResult(gen int) map[TID][]byte {
	r := b.results[gen]
	if r == nil {
		return nil
	}
	r.readers--
	if r.readers <= 0 {
		delete(b.results, gen)
	}
	return r.data
}

// Barrier blocks until count tasks have entered the named barrier
// (PVM's pvm_barrier). All participants must agree on count.
func (t *Task) Barrier(name string, count int) error {
	return t.BarrierTimeout(name, count, 0)
}

// BarrierTimeout is Barrier with a deadline: when d is positive and
// elapses before the barrier completes, the task withdraws its arrival
// (so a later retry is not double-counted) and returns ErrTimeout. A
// zero or negative d waits forever. A barrier torn down with
// CancelBarrier returns ErrCanceled to every waiter and every
// subsequent arrival.
func (t *Task) BarrierTimeout(name string, count int, d time.Duration) error {
	_, err := t.BarrierExchange(name, count, d, nil)
	return err
}

// BarrierExchange is BarrierTimeout with an all-gather bolted on: each
// participant deposits a byte slice on arrival and, when the barrier
// completes, receives every participant's deposit keyed by TID. The
// verification layer uses it to join vector clocks at barriers without
// a second round of messaging. Deposits are copied on entry, so the
// caller may reuse its buffer immediately. A withdrawn (timed-out)
// arrival takes its deposit with it; CancelBarrier discards the
// pending round's deposits.
func (t *Task) BarrierExchange(name string, count int, d time.Duration, deposit []byte) (map[TID][]byte, error) {
	if count <= 0 {
		return nil, fmt.Errorf("pvm: barrier %q with count %d", name, count)
	}
	s := t.sys
	s.mu.Lock()
	if s.halted {
		s.mu.Unlock()
		return nil, ErrHalted
	}
	b, ok := s.barriers[name]
	if !ok {
		b = &barrier{}
		b.cond = sync.NewCond(&b.mu)
		s.barriers[name] = b
	}
	s.mu.Unlock()

	var deadline time.Time
	var timer *time.Timer
	if d > 0 {
		deadline = time.Now().Add(d)
		timer = time.AfterFunc(d, func() {
			b.mu.Lock()
			b.cond.Broadcast()
			b.mu.Unlock()
		})
		defer timer.Stop()
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	if b.canceled {
		return nil, fmt.Errorf("pvm: barrier %q: %w", name, ErrCanceled)
	}
	gen := b.gen
	if b.deposits == nil {
		b.deposits = make(map[TID][]byte)
	}
	b.deposits[t.tid] = append([]byte(nil), deposit...)
	b.arrived++
	if b.arrived >= count {
		b.arrived = 0
		if b.results == nil {
			b.results = make(map[int]*barrierResult)
		}
		b.results[gen] = &barrierResult{data: b.deposits, readers: count}
		b.deposits = nil
		b.gen++
		b.cond.Broadcast()
		return b.takeResult(gen), nil
	}
	for b.gen == gen && !b.halted && !b.canceled {
		if d > 0 && !time.Now().Before(deadline) {
			b.arrived--
			delete(b.deposits, t.tid)
			return nil, fmt.Errorf("pvm: barrier %q after %v: %w", name, d, ErrTimeout)
		}
		b.cond.Wait()
	}
	if b.gen != gen {
		return b.takeResult(gen), nil // completed while we were checking
	}
	if b.canceled {
		return nil, fmt.Errorf("pvm: barrier %q: %w", name, ErrCanceled)
	}
	return nil, ErrHalted
}

// CancelBarrier tears down the named barrier: every current waiter and
// every later arrival gets ErrCanceled. Unlike Halt it affects only
// this barrier, so the rest of the system keeps running — the hook the
// failure-detection layer uses to un-park survivors of a crashed peer.
// Canceling a name nobody has arrived at yet still latches: the cancel
// may race ahead of the waiter it is meant to wake.
func (s *System) CancelBarrier(name string) {
	s.mu.Lock()
	b, ok := s.barriers[name]
	if !ok {
		b = &barrier{}
		b.cond = sync.NewCond(&b.mu)
		s.barriers[name] = b
	}
	s.mu.Unlock()
	b.mu.Lock()
	b.canceled = true
	b.arrived = 0
	b.deposits = nil
	b.cond.Broadcast()
	b.mu.Unlock()
}
