// Package bufown is the golden fixture for the linear-ownership
// checker: a stub of the pvm mailbox API plus seeded lifetime bugs
// (leaks on early error returns, double releases, uses after release,
// path-sensitive re-sends, release-in-flight, panic leaks) and the
// audited-clean idioms (err-guarded acquisition, deferred release,
// ownership hand-offs to helpers and callers).
package bufown

type TID int

type Buffer struct{ data []byte }

func NewBuffer() *Buffer                        { return &Buffer{} }
func (b *Buffer) PackInt32(vs ...int32) *Buffer { return b }
func (b *Buffer) UnpackInt32() (int32, error)   { return 0, nil }
func (b *Buffer) UnpackBytes() ([]byte, error)  { return nil, nil }

type Message struct {
	Src TID
	Tag int
}

func (m Message) Release()        {}
func (m Message) Buffer() *Buffer { return &Buffer{} }
func (m Message) Len() int        { return 0 }

type Task struct{}

func (t *Task) Recv(src TID, tag int) (Message, error)       { return Message{}, nil }
func (t *Task) TryRecv(src TID, tag int) (Message, bool)     { return Message{}, false }
func (t *Task) TryRecvAll(src TID, tag int) []Message        { return nil }
func (t *Task) Send(dst TID, tag int, buf *Buffer) error     { return nil }
func (t *Task) Mcast(dsts []TID, tag int, buf *Buffer) error { return nil }

// --- violations ---

// The classic leak: an early error return between acquisition and
// release drops the wire reference.
func leakOnErrorReturn(t *Task) error {
	m, err := t.Recv(1, 0)
	if err != nil {
		return err
	}
	b := m.Buffer()
	if _, err := b.UnpackInt32(); err != nil {
		return err // want `not released on this return path`
	}
	m.Release()
	return nil
}

// Never released at all: the reference leaks at the final return.
func neverReleased(t *Task) int {
	m, ok := t.TryRecv(1, 0)
	if !ok {
		return 0
	}
	return m.Len() // want `not released on this return path`
}

// Same leak without a return: reported where the reference was taken,
// since nothing past the end of the scope can release it.
func neverReleasedFallsOff(t *Task) {
	m, ok := t.TryRecv(1, 0) // want `not released on every path`
	if !ok {
		return
	}
	observe(m.Len())
}

func observe(int) {}

func doubleRelease(t *Task) error {
	m, err := t.Recv(1, 0)
	if err != nil {
		return err
	}
	m.Release()
	m.Release() // want `double release`
	return nil
}

// Unpacking through an alias of a released message reads bytes the pool
// may already have recycled into another message.
func useAfterRelease(t *Task) (int32, error) {
	m, err := t.Recv(1, 0)
	if err != nil {
		return 0, err
	}
	b := m.Buffer()
	m.Release()
	return b.UnpackInt32() // want `use of buffer "b" after message "m" was released`
}

// Path-sensitive re-send: one arm already transferred the buffer, so
// the unconditional send doubles it on that path. (bufreuse's
// source-ordered rule sees two sends but cannot tell the paths apart.)
func resendOnSomePaths(t *Task, urgent bool) error {
	buf := NewBuffer().PackInt32(7)
	if urgent {
		if err := t.Send(2, 1, buf); err != nil {
			return err
		}
	}
	return t.Send(3, 1, buf) // want `may already have been sent on some paths`
}

func resendDefinite(t *Task) {
	buf := NewBuffer().PackInt32(1)
	_ = t.Send(2, 1, buf)
	_ = t.Send(3, 1, buf) // want `sent again: ownership transferred`
}

// Forwarding a received message's bytes hands the pooled record to the
// fabric; releasing before delivery recycles bytes still on the wire.
func releaseInFlight(t *Task) error {
	m, err := t.Recv(1, 0)
	if err != nil {
		return err
	}
	fwd := m.Buffer()
	if err := t.Send(2, 1, fwd); err != nil {
		return err
	}
	m.Release() // want `released while its bytes are in flight`
	return nil
}

// A panic between acquisition and release leaks unless the release is
// deferred.
func leakOnPanic(t *Task, n int) {
	m, ok := t.TryRecv(1, 0)
	if !ok {
		return
	}
	if n < 0 {
		panic("negative fan-in count") // want `leaks if this panic unwinds`
	}
	m.Release()
}

// An explicit Release with a deferred one pending drops two references
// for one acquisition.
func doubleWithDefer(t *Task) error {
	m, err := t.Recv(1, 0)
	if err != nil {
		return err
	}
	defer m.Release()
	if m.Len() == 0 {
		return nil
	}
	m.Release() // want `a deferred Release is already pending`
	return nil
}

// The TryRecvAll drain-loop bug: an early return mid-iteration leaks
// the current message (and strands the rest of the batch).
func drainLeaky(t *Task) error {
	for _, m := range t.TryRecvAll(1, 0) {
		b := m.Buffer()
		if _, err := b.UnpackInt32(); err != nil {
			return err // want `not released on this return path`
		}
		m.Release()
	}
	return nil
}

// --- audited-clean idioms ---

// The guarded acquisition: on the error arm nothing was delivered, so
// returning without Release is correct.
func errGuardClean(t *Task) error {
	m, err := t.Recv(1, 0)
	if err != nil {
		return err
	}
	defer m.Release()
	if _, err := m.Buffer().UnpackInt32(); err != nil {
		return err
	}
	return nil
}

// A closure that releases on the way out is as good as a direct defer.
func closureDeferClean(t *Task) error {
	m, err := t.Recv(1, 0)
	if err != nil {
		return err
	}
	defer func() { m.Release() }()
	return nil
}

// Returning the message transfers the obligation to the caller.
func transferToCaller(t *Task) (Message, error) {
	m, err := t.Recv(1, 0)
	if err != nil {
		return Message{}, err
	}
	return m, nil
}

// Handing the message to a helper transfers the obligation to it.
func handedToHelper(t *Task) {
	m, ok := t.TryRecv(1, 0)
	if !ok {
		return
	}
	consume(m)
}

func consume(m Message) { m.Release() }

// Release on every arm of a branch keeps the reference balanced.
func releasedOnBothArms(t *Task, keep bool) []byte {
	m, ok := t.TryRecv(1, 0)
	if !ok {
		return nil
	}
	var out []byte
	if keep {
		raw, _ := m.Buffer().UnpackBytes()
		out = append(out, raw...)
		m.Release()
	} else {
		m.Release()
	}
	return out
}

// A read-only sizing pass before the owning drain: only the last loop
// over the batch carries the release obligation.
func drainSized(t *Task) int {
	msgs := t.TryRecvAll(1, 0)
	total := 0
	for _, m := range msgs {
		total += m.Len()
	}
	for _, m := range msgs {
		m.Release()
	}
	return total
}

// The drain loop done right: release per iteration, and on an error
// hand the remaining batch (current element included) to a helper that
// owns the cleanup.
func drainForward(t *Task, rest func([]Message, error) error) error {
	msgs := t.TryRecvAll(1, 0)
	for i, m := range msgs {
		b := m.Buffer()
		if _, err := b.UnpackInt32(); err != nil {
			return rest(msgs[i:], err)
		}
		m.Release()
	}
	return nil
}

// --- sent data is never touched again ---

type Machine struct{}

type Ctx interface {
	Pid() int
	Send(dst, tag int, payload []byte) error
	Sync(scope *Machine, label string) error
}

func (b *Buffer) PackBytes(p []byte) *Buffer { return b }

// Packing into a sent buffer writes bytes the fabric now owns.
func packAfterSend(t *Task) error {
	buf := NewBuffer()
	buf.PackInt32(1)
	if err := t.Send(1, 7, buf); err != nil {
		return err
	}
	buf.PackInt32(2)         // want `PackInt32 into buffer "buf" already sent at line 278`
	return t.Send(2, 7, buf) // want `buffer "buf" sent again: ownership transferred to the fabric at line 278`
}

func packAfterMcast(t *Task) error {
	buf := NewBuffer().PackBytes([]byte("hello"))
	if err := t.Mcast([]TID{1, 2}, 3, buf); err != nil {
		return err
	}
	buf.PackBytes([]byte("tail")) // want `PackBytes into buffer "buf" already sent at line 287`
	return nil
}

func packOnSomePaths(t *Task, urgent bool) {
	buf := NewBuffer()
	if urgent {
		_ = t.Send(1, 7, buf)
	}
	buf.PackInt32(3) // want `PackInt32 into buffer "buf" that may already have been sent on some paths`
}

func resendWithoutPacking(t *Task) error {
	buf := NewBuffer().PackInt32(1)
	if err := t.Send(1, 7, buf); err != nil {
		return err
	}
	return t.Send(2, 7, buf) // want `buffer "buf" sent again`
}

// Ctx.Send may deliver the sender's slice itself: every later write
// into it races with the receiver.
func mutatePayloadAfterSend(c Ctx, scope *Machine) error {
	payload := []byte("abc")
	if err := c.Send(1, 0, payload); err != nil {
		return err
	}
	payload[0] = 'z' // want `store into payload "payload" after Send queued it at line 314`
	return c.Sync(scope, "step")
}

func appendPayloadAfterSend(c Ctx) error {
	payload := make([]byte, 0, 16)
	payload = append(payload, 1, 2, 3)
	if err := c.Send(1, 0, payload); err != nil {
		return err
	}
	payload = append(payload, 4) // want `append into payload "payload" after Send queued it`
	payload[1]++                 // want `store into payload "payload" after Send queued it`
	return nil
}

func copyIntoSentPayload(c Ctx, fresh []byte) error {
	payload := make([]byte, 8)
	if err := c.Send(1, 0, payload); err != nil {
		return err
	}
	copy(payload, fresh) // want `copy into payload "payload" after Send queued it`
	return nil
}

func sliceOfSentPayload(c Ctx) error {
	payload := make([]byte, 8)
	if err := c.Send(1, 0, payload[:4]); err != nil {
		return err
	}
	payload[5] = 1 // want `store into payload "payload" after Send queued it`
	return nil
}

// The next iteration's store reaches the bytes the previous one sent.
func storeAcrossIterations(c Ctx, scope *Machine, rounds int) error {
	out := make([]byte, 4)
	for r := 0; r < rounds; r++ {
		out[0] = byte(r) // want `store into payload "out" after Send queued it`
		if err := c.Send(1, 0, out); err != nil {
			return err
		}
		if err := c.Sync(scope, "round"); err != nil {
			return err
		}
	}
	return nil
}

// A resend inside a channel send is still a resend.
func resendIntoChannel(t *Task, errs chan<- error) {
	buf := NewBuffer().PackInt32(7)
	if err := t.Send(1, 1, buf); err != nil {
		errs <- err
		return
	}
	errs <- t.Send(1, 1, buf) // want `buffer "buf" sent again`
}

// Deferred sends run last-pushed first: the defer on the line below
// executes before this one, so this one is the second send.
func deferredDoubleSend(t *Task, dst TID) {
	buf := NewBuffer().PackInt32(1)
	defer t.Send(dst, 1, buf) // want `buffer "buf" sent again: ownership transferred to the fabric at line 380`
	defer t.Send(dst, 2, buf)
}

// --- sent data: safe patterns ---

func freshBufferPerMessage(t *Task) error {
	for dst := TID(0); dst < 4; dst++ {
		buf := NewBuffer()
		buf.PackInt32(int32(dst))
		if err := t.Send(dst, 7, buf); err != nil {
			return err
		}
	}
	return nil
}

func rebindResets(t *Task) error {
	buf := NewBuffer().PackInt32(1)
	if err := t.Send(1, 7, buf); err != nil {
		return err
	}
	buf = NewBuffer()
	buf.PackInt32(2)
	return t.Send(2, 7, buf)
}

func freshPayloadAfterSend(c Ctx) error {
	payload := []byte("abc")
	if err := c.Send(1, 0, payload); err != nil {
		return err
	}
	payload = []byte("new backing array")
	payload[0] = 'z'
	return nil
}

// One payload to several destinations is a broadcast, not a reuse.
func samePayloadManyDestinations(c Ctx, scope *Machine, data []byte) error {
	for dst := 0; dst < 4; dst++ {
		if err := c.Send(dst, 0, data); err != nil {
			return err
		}
	}
	return c.Sync(scope, "bcast")
}

// Per-iteration payloads are fresh slices, however they are declared.
func freshPayloadPerIteration(c Ctx, rows [][]byte) error {
	for _, row := range rows {
		row[0] = 1
		var out []byte
		out = append(out, row...)
		if err := c.Send(1, 0, out); err != nil {
			return err
		}
		if err := c.Send(2, 0, row); err != nil {
			return err
		}
	}
	return nil
}

// A deferred send runs after the body: packing below the defer happens
// before the buffer is handed to the fabric, so nothing is reused.
func deferredSendThenPack(t *Task, dst TID) {
	buf := NewBuffer()
	defer t.Send(dst, 1, buf)
	buf.PackInt32(42)
}

// defer msg.Release() is cleanup, not reuse.
func deferReleaseIsCleanup(t *Task, m Message, dst TID) error {
	defer m.Release()
	buf := NewBuffer().PackInt32(9)
	return t.Send(dst, 2, buf)
}

// A buffer handed over a channel bare changes hands: the receiver owns
// the send.
func bufferHandedOff(out chan<- *Buffer) {
	buf := NewBuffer().PackInt32(5)
	out <- buf
}

// A buffer handed in by the caller is tracked from its first send.
func packParamAfterSend(t *Task, buf *Buffer) error {
	if err := t.Send(1, 7, buf); err != nil {
		return err
	}
	buf.PackInt32(2)         // want `PackInt32 into buffer "buf" already sent`
	return t.Send(2, 7, buf) // want `buffer "buf" sent again`
}
