package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// Inputs and their oracles. Everything here is a pure function of the
// seed and the op index: expectations are derived from the generated
// inputs by this file, never by the library under test, so a result
// the library gets wrong cannot also make its expectation wrong.

// mix is the splitmix64 finalizer: a cheap bijective scramble.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// streamKey derives the key of one input stream from the seed and the
// stream's coordinates (op, family, pid, ...).
func streamKey(seed int64, coords ...int) uint64 {
	k := mix(uint64(seed))
	for _, c := range coords {
		k = mix(k ^ uint64(c))
	}
	return k
}

// fill writes the seeded byte stream of key k into b.
func fill(b []byte, k uint64) {
	i := 0
	for ; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], mix(k+uint64(i)))
	}
	if i < len(b) {
		v := mix(k + uint64(i))
		for ; i < len(b); i++ {
			b[i] = byte(v)
			v >>= 8
		}
	}
}

// fillVec writes the seeded vector of key k into v. Elements stay below
// 2^24 so eight-way sums never wrap.
func fillVec(v []int64, k uint64) {
	for i := range v {
		v[i] = int64(mix(k+uint64(i)) >> 40)
	}
}

// resized returns b with length n, reusing its backing when it fits.
func resized[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// clone returns a fresh copy: every sent buffer is allocated anew,
// because the Virtual engine may hand the sender's bytes to receivers.
func clone[T any](b []T) []T { return append(make([]T, 0, len(b)), b...) }

// Ring workloads.

// ringMsgLen is the size of every ring message.
const ringMsgLen = 64

// stamp fills b (ringMsgLen bytes) with the message pid src sends to
// dst in step of op: a readable header, then seeded bytes.
func stamp(b []byte, seed int64, op, src, dst, step int) {
	binary.LittleEndian.PutUint64(b[0:], uint64(op))
	binary.LittleEndian.PutUint32(b[8:], uint32(src))
	binary.LittleEndian.PutUint32(b[12:], uint32(dst))
	binary.LittleEndian.PutUint32(b[16:], uint32(step))
	fill(b[20:], streamKey(seed, famRing, op, src, step))
}

// Bulk workloads.

// Collective families in dispatch order; the values double as stream
// coordinates.
const (
	famBcast = iota
	famGather
	famScatter
	famAllGather
	famReduce
	famAllReduce
	famScan
	famAllToAll
	numFamilies
	famRing = 100
)

var familyNames = [numFamilies]string{
	"bcast", "gather", "scatter", "allgather", "reduce", "allreduce", "scan", "alltoall",
}

// Size range of a bulk round's total payload n.
const (
	minRound = 1 << 10
	maxRound = 256 << 10
	// strata is the number of equal-width log-size bins one block of
	// rounds visits once each: every round is log-uniform on its own,
	// and a whole block covers every planner size bucket, so a run's
	// size mix barely depends on where the clock stopped it.
	strata = 32
)

// sizeStream draws round sizes log-uniformly from [minRound, maxRound]
// in shuffled blocks of strata rounds.
type sizeStream struct {
	rng   *rand.Rand
	block []int
}

func newSizeStream(seed int64) *sizeStream {
	return &sizeStream{rng: rand.New(rand.NewSource(seed))}
}

// skip draws and drops n sizes: a stream resumed at op n.
func (s *sizeStream) skip(n int) {
	for ; n > 0; n-- {
		s.next()
	}
}

func (s *sizeStream) next() int {
	if len(s.block) == 0 {
		lo, hi := math.Log(minRound), math.Log(maxRound)
		for _, bin := range s.rng.Perm(strata) {
			u := (float64(bin) + s.rng.Float64()) / strata
			n := int(math.Exp(lo+u*(hi-lo))) &^ 63 // 64 | n: equal pieces everywhere
			s.block = append(s.block, max(n, minRound))
		}
	}
	n := s.block[0]
	s.block = s.block[1:]
	return n
}

// roundData is one bulk round's pristine inputs for every processor,
// kept to check results against. Nothing here is ever sent: each
// processor sends fresh copies made by inputsFor.
type roundData struct {
	p    int // processors
	root int // the data-supplying fastest leaf

	bcast     []byte
	gather    [][]byte // [pid] n/p bytes
	scatter   [][]byte // [pid] n/p bytes, supplied by root
	allgather [][]byte // [pid] n/p bytes
	vec       [3][][]int64
	alltoall  [][][]byte // [src][dst] n/p² bytes
}

// Vector families' slots in roundData.vec.
const (
	vecReduce = iota
	vecAllReduce
	vecScan
)

func newRoundData(p, root int) *roundData {
	d := &roundData{p: p, root: root}
	d.gather = make([][]byte, p)
	d.scatter = make([][]byte, p)
	d.allgather = make([][]byte, p)
	for i := range d.vec {
		d.vec[i] = make([][]int64, p)
	}
	d.alltoall = make([][][]byte, p)
	for i := range d.alltoall {
		d.alltoall[i] = make([][]byte, p)
	}
	return d
}

// round names one bulk round: its seed, op index and total payload n.
type round struct {
	seed  int64
	op, n int
}

// generate fills pid's share of round r: what pid itself supplies.
// Processors fill disjoint parts, so all may run it concurrently.
func (d *roundData) generate(r round, pid int) {
	share, piece, width := r.n/d.p, r.n/(d.p*d.p), r.n/(8*d.p)
	key := func(fam int, extra ...int) uint64 {
		return streamKey(r.seed, append([]int{r.op, fam, pid}, extra...)...)
	}
	if pid == d.root {
		d.bcast = resized(d.bcast, r.n)
		fill(d.bcast, key(famBcast))
		for dst := range d.scatter {
			d.scatter[dst] = resized(d.scatter[dst], share)
			fill(d.scatter[dst], key(famScatter, dst))
		}
	}
	d.gather[pid] = resized(d.gather[pid], share)
	fill(d.gather[pid], key(famGather))
	d.allgather[pid] = resized(d.allgather[pid], share)
	fill(d.allgather[pid], key(famAllGather))
	for i, fam := range [...]int{famReduce, famAllReduce, famScan} {
		d.vec[i][pid] = resized(d.vec[i][pid], width)
		fillVec(d.vec[i][pid], key(fam))
	}
	for dst := range d.alltoall[pid] {
		d.alltoall[pid][dst] = resized(d.alltoall[pid][dst], piece)
		fill(d.alltoall[pid][dst], key(famAllToAll, dst))
	}
}

// roundInputs are one processor's arguments to the eight collectives,
// freshly allocated so no sent buffer is ever reused.
type roundInputs struct {
	bcast     []byte
	gather    []byte
	scatter   map[int][]byte
	allgather []byte
	vec       [3][]int64
	alltoall  map[int][]byte
}

func (d *roundData) inputsFor(pid int) *roundInputs {
	in := &roundInputs{
		gather:    clone(d.gather[pid]),
		allgather: clone(d.allgather[pid]),
		alltoall:  make(map[int][]byte, d.p),
	}
	if pid == d.root {
		in.bcast = clone(d.bcast)
		in.scatter = make(map[int][]byte, d.p)
		for dst, b := range d.scatter {
			in.scatter[dst] = clone(b)
		}
	}
	for i := range in.vec {
		in.vec[i] = clone(d.vec[i][pid])
	}
	for dst, b := range d.alltoall[pid] {
		in.alltoall[dst] = clone(b)
	}
	return in
}

// roundResults are what the eight collectives returned on one processor.
type roundResults struct {
	bcast     []byte
	gather    map[int][]byte
	scatter   []byte
	allgather map[int][]byte
	vec       [3][]int64
	alltoall  map[int][]byte
}

// check compares pid's results with the round's expectations. Gather
// and Reduce return results only at the fastest leaf (every other
// processor gets nil), and Scan is the inclusive prefix in pid order.
func (d *roundData) check(rd round, pid int, r *roundResults) error {
	width := rd.n / (8 * d.p)
	if !bytes.Equal(r.bcast, d.bcast) {
		return fmt.Errorf("bcast: pid %d got %d bytes, not the root's %d", pid, len(r.bcast), len(d.bcast))
	}
	if pid == d.root {
		if err := checkPieces("gather", pid, d.p, r.gather, func(src int) []byte { return d.gather[src] }); err != nil {
			return err
		}
	} else if r.gather != nil {
		return fmt.Errorf("gather: non-root pid %d got a result", pid)
	}
	if !bytes.Equal(r.scatter, d.scatter[pid]) {
		return fmt.Errorf("scatter: pid %d got the wrong piece", pid)
	}
	if err := checkPieces("allgather", pid, d.p, r.allgather, func(src int) []byte { return d.allgather[src] }); err != nil {
		return err
	}
	if err := checkPieces("alltoall", pid, d.p, r.alltoall, func(src int) []byte { return d.alltoall[src][pid] }); err != nil {
		return err
	}
	want := make([]int64, width)
	if pid == d.root {
		if err := checkVec("reduce", pid, r.vec[vecReduce], d.sum(want, vecReduce, d.p)); err != nil {
			return err
		}
	} else if r.vec[vecReduce] != nil {
		return fmt.Errorf("reduce: non-root pid %d got a result", pid)
	}
	if err := checkVec("allreduce", pid, r.vec[vecAllReduce], d.sum(want, vecAllReduce, d.p)); err != nil {
		return err
	}
	return checkVec("scan", pid, r.vec[vecScan], d.sum(want, vecScan, pid+1))
}

// sum folds the first upto processors' vectors of one family into dst.
func (d *roundData) sum(dst []int64, slot, upto int) []int64 {
	clear(dst)
	for q := 0; q < upto; q++ {
		for i, v := range d.vec[slot][q] {
			dst[i] += v
		}
	}
	return dst
}

// checkPieces verifies a pid-keyed result holds exactly one correct
// piece from each of the p processors.
func checkPieces(fam string, pid, p int, got map[int][]byte, want func(src int) []byte) error {
	if len(got) != p {
		return fmt.Errorf("%s: pid %d got %d pieces, want %d", fam, pid, len(got), p)
	}
	for src, b := range got {
		if src < 0 || src >= p {
			return fmt.Errorf("%s: pid %d got a piece from unknown pid %d", fam, pid, src)
		}
		if !bytes.Equal(b, want(src)) {
			return fmt.Errorf("%s: pid %d got a wrong piece from pid %d", fam, pid, src)
		}
	}
	return nil
}

func checkVec(fam string, pid int, got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: pid %d got width %d, want %d", fam, pid, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: pid %d element %d = %d, want %d", fam, pid, i, got[i], want[i])
		}
	}
	return nil
}

// roundPayload is the application payload a correct round delivers
// into results, summed over processors: bcast and allgather leave n at
// every processor, reduce leaves one n/p-byte vector at the root, and
// every other family delivers n in total.
func roundPayload(n, p int) int64 {
	return int64(2*p*n + 5*n + n/p)
}
