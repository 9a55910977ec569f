package pvm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// Tests of the pooled wire-buffer fabric: recycling must never alias a
// message the receiver still holds, ownership transfer must reject
// reuse of a sent buffer, and the split-lock mailbox must preserve
// per-sender FIFO under contention. Run these under -race.

// pattern fills a deterministic payload for (sender, n).
func pattern(sender, n, size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(sender*31 + n*7 + i)
	}
	return p
}

// TestPoolRecyclingNeverAliasesLiveMessage is the aliasing property
// test: a receiver holds a window of delivered messages while senders
// keep the pool churning; held payloads must stay intact until their
// Release, whatever recycled wire any new send picks up.
func TestPoolRecyclingNeverAliasesLiveMessage(t *testing.T) {
	const (
		senders  = 4
		perSend  = 300
		size     = 512
		holdSize = 64
	)
	s := NewSystem()
	var recvTID TID
	done := make(chan struct{})
	recvTID = s.Spawn("recv", func(rt *Task) error {
		defer close(done)
		rng := rand.New(rand.NewSource(1))
		type held struct {
			m    Message
			want []byte
		}
		var window []held
		check := func(h held) error {
			got, err := h.m.Buffer().UnpackBytes()
			if err != nil {
				return err
			}
			if !bytes.Equal(got, h.want) {
				return fmt.Errorf("held message from %d corrupted by recycling", h.m.Src)
			}
			h.m.Release()
			return nil
		}
		counts := make([]int, senders+1)
		for i := 0; i < senders*perSend; i++ {
			m, err := rt.Recv(AnySource, AnyTag)
			if err != nil {
				return err
			}
			want := pattern(int(m.Src), counts[m.Src], size)
			counts[m.Src]++
			window = append(window, held{m: m, want: want})
			// Hold a full window, then verify-and-release in random
			// order: every payload must still read back intact.
			if len(window) >= holdSize {
				rng.Shuffle(len(window), func(a, b int) {
					window[a], window[b] = window[b], window[a]
				})
				for _, h := range window {
					if err := check(h); err != nil {
						return err
					}
				}
				window = window[:0]
			}
		}
		for _, h := range window {
			if err := check(h); err != nil {
				return err
			}
		}
		return nil
	})
	for sn := 1; sn <= senders; sn++ {
		sn := sn
		s.Spawn(fmt.Sprintf("send%d", sn), func(st *Task) error {
			for n := 0; n < perSend; n++ {
				buf := NewBuffer().PackBytes(pattern(int(st.TID()), n, size))
				if err := st.Send(recvTID, sn, buf); err != nil {
					return err
				}
			}
			return nil
		})
	}
	<-done
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestMailboxContentionPerSenderFIFO floods one receiver from many
// concurrent senders and asserts messages from each sender arrive in
// send order, wildcard receive or not.
func TestMailboxContentionPerSenderFIFO(t *testing.T) {
	const (
		senders = 8
		perSend = 500
	)
	s := NewSystem()
	var recvTID TID
	done := make(chan struct{})
	recvTID = s.Spawn("recv", func(rt *Task) error {
		defer close(done)
		last := map[TID]int64{}
		for i := 0; i < senders*perSend; i++ {
			m, err := rt.Recv(AnySource, AnyTag)
			if err != nil {
				return err
			}
			n, err := m.Buffer().UnpackInt64()
			if err != nil {
				return err
			}
			m.Release()
			if prev, ok := last[m.Src]; ok && n != prev+1 {
				return fmt.Errorf("sender %d: got %d after %d, want FIFO", m.Src, n, prev)
			}
			last[m.Src] = n
		}
		return nil
	})
	var start sync.WaitGroup
	start.Add(1)
	for sn := 0; sn < senders; sn++ {
		sn := sn
		s.Spawn(fmt.Sprintf("send%d", sn), func(st *Task) error {
			start.Wait()
			for n := 0; n < perSend; n++ {
				if err := st.Send(recvTID, sn, NewBuffer().PackInt64(int64(n))); err != nil {
					return err
				}
			}
			return nil
		})
	}
	start.Done()
	<-done
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSendRejectsReuse: ownership of a buffer transfers on send, so
// sending it again (or multicasting it after a send) must fail rather
// than alias a possibly recycled wire.
func TestSendRejectsReuse(t *testing.T) {
	s := NewSystem()
	var a TID
	errs := make(chan error, 1)
	a = s.Spawn("a", func(t *Task) error {
		m, err := t.Recv(AnySource, 1)
		if err != nil {
			return err
		}
		m.Release()
		return nil
	})
	s.Spawn("b", func(t *Task) error {
		buf := NewBuffer().PackInt32(7)
		if err := t.Send(a, 1, buf); err != nil {
			errs <- err
			return err
		}
		errs <- t.Send(a, 1, buf) //hbspk:ignore bufown (the test asserts the runtime rejects exactly this resend)
		return nil
	})
	if err := <-errs; err == nil {
		t.Fatal("second Send of the same buffer succeeded, want ownership error")
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSendBatchDeliversInOrder covers the engines' bulk-delivery path:
// one SendBatch must arrive as consecutive messages in slice order.
func TestSendBatchDeliversInOrder(t *testing.T) {
	const n = 100
	s := NewSystem()
	var recvTID TID
	done := make(chan error, 1)
	recvTID = s.Spawn("recv", func(t *Task) error {
		for i := 0; i < n; i++ {
			m, err := t.Recv(AnySource, 5)
			if err != nil {
				done <- err
				return err
			}
			got, err := m.Buffer().UnpackInt64()
			if err != nil {
				done <- err
				return err
			}
			m.Release()
			if got != int64(i) {
				err := fmt.Errorf("message %d carries %d, want batch order", i, got)
				done <- err
				return err
			}
		}
		done <- nil
		return nil
	})
	s.Spawn("send", func(t *Task) error {
		bufs := make([]*Buffer, n)
		for i := range bufs {
			bufs[i] = NewBuffer().PackInt64(int64(i))
		}
		return t.SendBatch(recvTID, 5, bufs)
	})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestTryRecvAll covers the bulk drain: exact-match drains one queue
// in arrival order; the wildcard merges queues by arrival stamp.
func TestTryRecvAll(t *testing.T) {
	s := NewSystem()
	var recvTID TID
	done := make(chan error, 1)
	sent := make(chan struct{})
	recvTID = s.Spawn("recv", func(t *Task) error {
		<-sent
		report := func(err error) error { done <- err; return err }
		exact := t.TryRecvAll(AnySource, 9)
		if len(exact) != 3 {
			return report(fmt.Errorf("tag 9: got %d messages, want 3", len(exact)))
		}
		for i, m := range exact {
			got, err := m.Buffer().UnpackInt64()
			if err != nil {
				return report(err)
			}
			if got != int64(i) {
				return report(fmt.Errorf("tag 9 message %d carries %d, want arrival order", i, got))
			}
			m.Release()
		}
		rest := t.TryRecvAll(AnySource, AnyTag)
		if len(rest) != 2 {
			return report(fmt.Errorf("wildcard: got %d messages, want 2", len(rest)))
		}
		for i, m := range rest {
			if m.Tag != 10+i {
				return report(fmt.Errorf("wildcard message %d has tag %d, want stamp order", i, m.Tag))
			}
			m.Release()
		}
		if extra := t.TryRecvAll(AnySource, AnyTag); len(extra) != 0 {
			return report(fmt.Errorf("drained mailbox still yields %d messages", len(extra)))
		}
		return report(nil)
	})
	s.Spawn("send", func(t *Task) error {
		for i := 0; i < 3; i++ {
			if err := t.Send(recvTID, 9, NewBuffer().PackInt64(int64(i))); err != nil {
				return err
			}
		}
		for i := 0; i < 2; i++ {
			if err := t.Send(recvTID, 10+i, NewBuffer().PackInt64(int64(i))); err != nil {
				return err
			}
		}
		close(sent)
		return nil
	})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestMcastSharesOneWire: after a multicast every receiver sees the
// payload, each Release drops one reference, and the last Release
// recycles without corrupting the others (exercised via -race and the
// content checks).
func TestMcastSharesOneWire(t *testing.T) {
	const fanout = 5
	s := NewSystem()
	tids := make([]TID, fanout)
	var wg sync.WaitGroup
	wg.Add(fanout)
	errs := make(chan error, fanout)
	ready := make(chan struct{})
	for i := 0; i < fanout; i++ {
		tids[i] = s.Spawn(fmt.Sprintf("recv%d", i), func(t *Task) error {
			defer wg.Done()
			<-ready
			m, err := t.Recv(AnySource, 2)
			if err != nil {
				errs <- err
				return err
			}
			defer m.Release()
			got, err := m.Buffer().UnpackString()
			if err != nil {
				errs <- err
				return err
			}
			if got != "shared-wire" {
				err := fmt.Errorf("got %q", got)
				errs <- err
				return err
			}
			return nil
		})
	}
	s.Spawn("send", func(t *Task) error {
		close(ready)
		return t.Mcast(tids, 2, NewBuffer().PackString("shared-wire"))
	})
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseTwicePanics: over-releasing is a refcount bug and must
// fail loudly, not silently double-free into the pool.
func TestReleaseTwicePanics(t *testing.T) {
	s := NewSystem()
	var recvTID TID
	done := make(chan error, 1)
	recvTID = s.Spawn("recv", func(t *Task) error {
		m, err := t.Recv(AnySource, 1)
		if err != nil {
			done <- err
			return err
		}
		m.Release()
		defer func() {
			if recover() == nil {
				done <- fmt.Errorf("second Release did not panic")
			} else {
				done <- nil
			}
		}()
		m.Release() //hbspk:ignore bufown (the test asserts the second Release panics)
		return nil
	})
	s.Spawn("send", func(t *Task) error {
		return t.Send(recvTID, 1, NewBuffer().PackInt32(1))
	})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		t.Fatal(err)
	}
}
