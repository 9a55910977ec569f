package pvm

import (
	"fmt"
	"sync"
	"testing"
)

// Microbenchmarks of the message fabric's hot path. Each reports
// allocs/op so the benchmark-regression gate (make bench, BENCH.json)
// can hold the send path to its allocation budget.
//
// Traffic is paced with a credit window, mirroring how superstep
// barriers bound in-flight messages in real HBSP runs: an unpaced
// producer would outrun the receiver without bound, which measures
// queue growth rather than the send path.

// benchWindow is the number of in-flight messages allowed before the
// sender waits for a credit.
const benchWindow = 32

// benchCreditTag is reserved for flow-control credits.
const benchCreditTag = 1 << 20

func sendCredit(t *Task, dst TID) error {
	return t.Send(dst, benchCreditTag, NewBuffer().PackInt32(1))
}

func awaitCredit(t *Task, src TID) error {
	m, err := t.Recv(src, benchCreditTag)
	if err != nil {
		return err
	}
	m.Release()
	return nil
}

func BenchmarkSendRecv(b *testing.B) {
	for _, size := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			runSendRecvBench(b, size)
		})
	}
}

// BenchmarkSendRecvObsvOff is the observability overhead guard: the
// identical workload to BenchmarkSendRecv with the observer explicitly
// cleared. make bench holds it within 5% of BenchmarkSendRecv on both
// ns/op and allocs/op (bench/gates.txt), so the disabled-path
// cost of the obsv hooks — one atomic pointer load per delivery and
// pool draw — stays invisible.
func BenchmarkSendRecvObsvOff(b *testing.B) {
	SetObserver(nil)
	for _, size := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			runSendRecvBench(b, size)
		})
	}
}

// benchObserver is a minimal metrics sink standing in for
// obsv.Recorder (pvm cannot import obsv: structural interface only).
type benchObserver struct{ depth, draws int64 }

func (o *benchObserver) MailboxDepth(d int) { o.depth += int64(d) }
func (o *benchObserver) PoolDraw(hit bool)  { o.draws++ }

// BenchmarkSendRecvObsvOn measures the enabled-observer cost of the
// same workload: informational, not gated.
func BenchmarkSendRecvObsvOn(b *testing.B) {
	SetObserver(&benchObserver{})
	defer SetObserver(nil)
	for _, size := range []int{64, 4096, 65536} {
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			runSendRecvBench(b, size)
		})
	}
}

// runSendRecvBench is the shared credit-paced ping workload behind the
// SendRecv benchmark family.
func runSendRecvBench(b *testing.B, size int) {
	payload := make([]byte, size)
	s := NewSystem()
	var recvTID, sendTID TID
	done := make(chan error, 1)
	ready := make(chan struct{})
	recvTID = s.Spawn("recv", func(t *Task) error {
		close(ready)
		for i := 0; i < b.N; i++ {
			m, err := t.Recv(AnySource, 7)
			if err != nil {
				done <- err
				return err
			}
			_, err = m.Buffer().UnpackBytes()
			m.Release()
			if err != nil {
				done <- err
				return err
			}
			if (i+1)%benchWindow == 0 {
				if err := sendCredit(t, sendTID); err != nil {
					done <- err
					return err
				}
			}
		}
		done <- nil
		return nil
	})
	sendTID = s.Spawn("send", func(t *Task) error {
		<-ready
		b.ReportAllocs()
		b.SetBytes(int64(size))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i >= benchWindow && i%benchWindow == 0 {
				if err := awaitCredit(t, recvTID); err != nil {
					return err
				}
			}
			buf := NewBuffer()
			buf.PackBytes(payload)
			if err := t.Send(recvTID, 7, buf); err != nil {
				return err
			}
		}
		b.StopTimer()
		return nil
	})
	if err := <-done; err != nil {
		b.Fatal(err)
	}
	if err := s.Wait(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMcastFanout measures one multicast to f destinations per
// iteration: the pooled fabric shares a single wire buffer across the
// fan-out.
func BenchmarkMcastFanout(b *testing.B) {
	for _, fanout := range []int{4, 16} {
		b.Run(fmt.Sprintf("f=%d", fanout), func(b *testing.B) {
			payload := make([]byte, 4096)
			s := NewSystem()
			tids := make([]TID, fanout)
			var sendTID TID
			var wg sync.WaitGroup
			wg.Add(fanout)
			ready := make(chan struct{})
			for i := 0; i < fanout; i++ {
				tids[i] = s.Spawn(fmt.Sprintf("recv%d", i), func(t *Task) error {
					defer wg.Done()
					<-ready
					for n := 0; n < b.N; n++ {
						m, err := t.Recv(AnySource, 3)
						if err != nil {
							return err
						}
						m.Release()
						if (n+1)%benchWindow == 0 {
							if err := sendCredit(t, sendTID); err != nil {
								return err
							}
						}
					}
					return nil
				})
			}
			sendTID = s.Spawn("send", func(t *Task) error {
				close(ready)
				b.ReportAllocs()
				b.SetBytes(int64(len(payload) * fanout))
				b.ResetTimer()
				for n := 0; n < b.N; n++ {
					if n >= benchWindow && n%benchWindow == 0 {
						for _, r := range tids {
							if err := awaitCredit(t, r); err != nil {
								return err
							}
						}
					}
					buf := NewBuffer()
					buf.PackBytes(payload)
					if err := t.Mcast(tids, 3, buf); err != nil {
						return err
					}
				}
				b.StopTimer()
				wg.Wait()
				return nil
			})
			if err := s.Wait(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkMailboxContention hammers one receiver from many senders:
// with the split sender/receiver locks, enqueues no longer serialize
// against the drain.
func BenchmarkMailboxContention(b *testing.B) {
	for _, senders := range []int{4, 16} {
		b.Run(fmt.Sprintf("senders=%d", senders), func(b *testing.B) {
			payload := make([]byte, 256)
			s := NewSystem()
			var recvTID TID
			sendTIDs := make([]TID, senders)
			done := make(chan error, 1)
			ready := make(chan struct{})
			total := b.N * senders
			recvTID = s.Spawn("recv", func(t *Task) error {
				close(ready)
				for i := 0; i < total; i++ {
					m, err := t.Recv(AnySource, AnyTag)
					if err != nil {
						done <- err
						return err
					}
					m.Release()
					if (i+1)%benchWindow == 0 {
						for _, st := range sendTIDs {
							if err := sendCredit(t, st); err != nil {
								done <- err
								return err
							}
						}
					}
				}
				done <- nil
				return nil
			})
			var start sync.WaitGroup
			start.Add(1)
			for i := 0; i < senders; i++ {
				i := i
				sendTIDs[i] = s.Spawn(fmt.Sprintf("send%d", i), func(t *Task) error {
					<-ready
					start.Wait()
					for n := 0; n < b.N; n++ {
						if n >= benchWindow && n%benchWindow == 0 {
							if err := awaitCredit(t, recvTID); err != nil {
								return err
							}
						}
						buf := NewBuffer()
						buf.PackBytes(payload)
						if err := t.Send(recvTID, i, buf); err != nil {
							return err
						}
					}
					return nil
				})
			}
			<-ready
			b.ReportAllocs()
			b.ResetTimer()
			start.Done()
			if err := <-done; err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := s.Wait(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
