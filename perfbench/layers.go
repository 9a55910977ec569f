package main

import (
	"math"
	"sort"

	"hbspk/internal/obsv"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are what a user of the library sees, measured with
// tracing off. failed_frac is not among them: it reads 0 on every
// healthy run, so it travels as the result's failed/attempted counts.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_us", "us", "lower"},
	{"op_p90_us", "us", "lower"},
	{"payload_MBps", "MB/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
	{"alloc_B_per_op", "B", "lower"},
	{"max_rss_MB", "MB", "lower"},
}

// perLayerMetrics come from the traced run. A metric of a layer a
// workload does not use reads 0 there.
var perLayerMetrics = []metricDef{
	{"hbsp.sync_us_p50", "us", "lower"},
	{"hbsp.sync_us_p99", "us", "lower"},
	{"hbsp.send_us_p50", "us", "lower"},
	{"hbsp.barrier_wait_us_per_op", "us", "lower"},
	{"hbsp.supersteps_per_op", "count", "lower"},
	{"hbsp.run_setup_us", "us", "lower"},
	{"hbsp.virtual_us_per_superstep", "us", "lower"},
	{"collective.bcast_us_p50", "us", "lower"},
	{"collective.gather_us_p50", "us", "lower"},
	{"collective.scatter_us_p50", "us", "lower"},
	{"collective.allgather_us_p50", "us", "lower"},
	{"collective.reduce_us_p50", "us", "lower"},
	{"collective.allreduce_us_p50", "us", "lower"},
	{"collective.scan_us_p50", "us", "lower"},
	{"collective.alltoall_us_p50", "us", "lower"},
	{"collective.self_us_per_op", "us", "lower"},
	{"plan.hit_frac", "frac", "higher"},
	{"pvm.pool_hit_frac", "frac", "higher"},
	{"pvm.pool_draws_per_op", "count", "lower"},
	{"pvm.mailbox_depth_p99", "count", "lower"},
	{"pvm.msgs_per_op", "count", "lower"},
	{"pvm.bytes_per_op", "B", "lower"},
	{"wiretrans.deliver_us_p50", "us", "lower"},
	{"wiretrans.deliver_us_p99", "us", "lower"},
	{"wiretrans.deliver_calls_per_op", "count", "lower"},
	{"wiretrans.frames_per_op", "count", "lower"},
	{"wiretrans.frame_bytes_per_op", "B", "lower"},
	{"obsv.trace_overhead_frac", "frac", "lower"},
	{"obsv.child_span_frac", "frac", "higher"},
}

// spanStats sorts a traced session's spans by what they cover.
type spanStats struct {
	send, sync []float64
	family     [numFamilies][]float64
	// Processor 0's op spans and, per op, the time its child spans
	// cover and its collective spans.
	ops   map[int32]span
	child map[int32]float64
	colls []span
}

func collectSpans(spans []span) *spanStats {
	st := &spanStats{ops: map[int32]span{}, child: map[int32]float64{}}
	for _, sp := range spans {
		d := sp.end - sp.start
		switch {
		case sp.name == spanSend:
			st.send = append(st.send, d)
		case sp.name == spanSync:
			st.sync = append(st.sync, d)
		case sp.name >= spanColl:
			st.family[sp.name-spanColl] = append(st.family[sp.name-spanColl], d)
		}
		if sp.pid != 0 {
			continue
		}
		switch {
		case sp.name == spanOp:
			st.ops[sp.op] = sp
		default:
			st.child[sp.op] += d
		}
		if sp.name >= spanColl {
			st.colls = append(st.colls, sp)
		}
	}
	return st
}

// childFrac is the share of processor 0's op spans that its child
// spans (Send/Sync or Planned*) account for.
func (st *spanStats) childFrac() float64 {
	var op, child float64
	for id, sp := range st.ops {
		if c, ok := st.child[id]; ok {
			op += sp.end - sp.start
			child += c
		}
	}
	if op == 0 {
		return 0
	}
	return child / op
}

// common fills the metrics every traced session reports the same way.
func (in *instruments) common(m map[string]float64, s *session, l *loop, st *spanStats) {
	ops := float64(s.ops)
	m["hbsp.sync_us_p50"] = quantile(st.sync, 0.5)
	m["hbsp.sync_us_p99"] = quantile(st.sync, 0.99)
	m["hbsp.send_us_p50"] = quantile(st.send, 0.5)
	for f := 0; f < numFamilies; f++ {
		m["collective."+familyNames[f]+"_us_p50"] = quantile(st.family[f], 0.5)
	}
	m["obsv.child_span_frac"] = st.childFrac()
	if l.planner != nil && len(l.marks) > 1 {
		first, last := l.marks[0].plan, l.marks[len(l.marks)-1].plan
		hits, misses := float64(last.Hits-first.Hits), float64(last.Misses-first.Misses)
		m["plan.hit_frac"] = ratio(hits, hits+misses)
	}
	hit, miss := float64(in.count.poolHit.Load()), float64(in.count.poolMiss.Load())
	m["pvm.pool_hit_frac"] = ratio(hit, hit+miss)
	m["pvm.pool_draws_per_op"] = (hit + miss) / ops
	m["pvm.mailbox_depth_p99"] = in.count.depthQuantile(0.99)
	counts := in.counts()
	m["pvm.msgs_per_op"] = float64(counts.msgs) / ops
	m["pvm.bytes_per_op"] = float64(counts.bytes) / ops
	m["wiretrans.deliver_us_p50"] = quantile(in.wire.durs, 0.5)
	m["wiretrans.deliver_us_p99"] = quantile(in.wire.durs, 0.99)
	m["wiretrans.deliver_calls_per_op"] = float64(in.wire.calls) / ops
	m["wiretrans.frames_per_op"] = float64(in.count.frames.Load()) / ops
	m["wiretrans.frame_bytes_per_op"] = float64(in.count.frameBytes.Load()) / ops
}

func newLayerMap() map[string]float64 {
	m := make(map[string]float64, len(perLayerMetrics))
	for _, d := range perLayerMetrics {
		m[d.name] = 0
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// concurrentLayers derives a traced Concurrent session's per-layer
// metrics. harness is the number of supersteps per op the benchmark
// itself adds. Barrier-wait and self times join the spans with the
// recorder's barrier-wait spans, both on the last engine run's clock,
// over that run's ops the recorder's ring still holds.
func (in *instruments) concurrentLayers(s *session, l *loop, harness int) map[string]float64 {
	m := newLayerMap()
	st := collectSpans(in.spans.all())
	in.common(m, s, l, st)
	m["hbsp.supersteps_per_op"] = float64(in.counts().steps)/float64(s.ops) - float64(harness)

	var all, own waitIndex
	from := math.Inf(1)
	for _, ev := range in.rec.Events() {
		from = math.Min(from, ev.Start)
		if ev.Kind != obsv.KindBarrier {
			continue
		}
		all.add(ev)
		if ev.Pid == 0 {
			own.add(ev)
		}
	}
	all.build()
	own.build()
	// A barrier wait belongs to the op during which its barrier
	// completed: every barrier of op i completes inside processor 0's
	// op span, and the untimed op barrier completes before it starts.
	var waited float64
	window := 0
	inWindow := map[int32]bool{}
	for id, sp := range st.ops {
		if int(id) < in.runFirst || sp.start < from {
			continue
		}
		window++
		inWindow[id] = true
		waited += all.sum(sp.start, sp.end)
	}
	var self float64
	for _, sp := range st.colls {
		if inWindow[sp.op] {
			self += sp.end - sp.start - own.sum(sp.start, sp.end)
		}
	}
	if window > 0 {
		m["hbsp.barrier_wait_us_per_op"] = waited / float64(window)
		if len(st.colls) > 0 {
			m["collective.self_us_per_op"] = self / float64(window)
		}
	}
	return m
}

// virtualLayers derives a traced Virtual session's per-layer metrics.
// The Virtual engine's barrier waits are on its modeled clock, so no
// wall-clock wait is subtracted from the collectives' self time.
func (in *instruments) virtualLayers(s *session, l *loop, steps int, perStep []float64) map[string]float64 {
	m := newLayerMap()
	st := collectSpans(in.spans.all())
	in.common(m, s, l, st)
	m["hbsp.supersteps_per_op"] = float64(steps) / float64(s.ops)
	m["hbsp.virtual_us_per_superstep"] = quantile(perStep, 0.5)
	var self float64
	for _, sp := range st.colls {
		self += sp.end - sp.start
	}
	if len(st.ops) > 0 {
		m["collective.self_us_per_op"] = self / float64(len(st.ops))
	}
	return m
}

// waitIndex sums barrier waits by completion time.
type waitIndex struct {
	ends, durs []float64
	prefix     []float64
}

func (w *waitIndex) add(ev obsv.Event) {
	w.ends = append(w.ends, ev.End)
	w.durs = append(w.durs, ev.End-ev.Start)
}

func (w *waitIndex) build() {
	idx := make([]int, len(w.ends))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return w.ends[idx[a]] < w.ends[idx[b]] })
	ends := make([]float64, len(idx))
	w.prefix = make([]float64, len(idx)+1)
	for i, j := range idx {
		ends[i] = w.ends[j]
		w.prefix[i+1] = w.prefix[i] + w.durs[j]
	}
	w.ends = ends
}

// sum returns the total wait of barriers completing in (from, to].
func (w *waitIndex) sum(from, to float64) float64 {
	lo := sort.SearchFloat64s(w.ends, from)
	for lo < len(w.ends) && w.ends[lo] <= from {
		lo++
	}
	hi := sort.SearchFloat64s(w.ends, to)
	for hi < len(w.ends) && w.ends[hi] <= to {
		hi++
	}
	return w.prefix[hi] - w.prefix[lo]
}
