package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hbspk/internal/fabric"
	"hbspk/internal/hbsp"
	"hbspk/internal/plan"
)

// virtualRound runs one bulk round on the Virtual engine and returns
// its expectations and every processor's results.
func virtualRound(t *testing.T, rd round) (*roundData, []*roundResults) {
	t.Helper()
	tree := benchTree()
	p, root := tree.NProcs(), tree.Pid(tree.FastestLeaf())
	d := newRoundData(p, root)
	args := make([]*roundInputs, p)
	res := make([]*roundResults, p)
	for pid := 0; pid < p; pid++ {
		d.generate(rd, pid)
	}
	for pid := range args {
		args[pid] = d.inputsFor(pid)
	}
	planner := plan.New()
	eng := hbsp.NewVirtual(tree, fabric.New(tree, fabric.PVM()))
	eng.Plan = planner
	if _, err := eng.Run(func(c hbsp.Ctx) error {
		r, err := runRound(c, planner, nil, rd.op, rd.n, args[c.Pid()])
		res[c.Pid()] = r
		return err
	}); err != nil {
		t.Fatalf("round: %v", err)
	}
	return d, res
}

func TestOracleAcceptsCorrectRounds(t *testing.T) {
	for _, n := range []int{minRound, 3 * 1024, maxRound} {
		rd := round{seed: 7, op: 3, n: n}
		d, res := virtualRound(t, rd)
		for pid, r := range res {
			if err := d.check(rd, pid, r); err != nil {
				t.Fatalf("n=%d: correct round rejected: %v", n, err)
			}
		}
	}
}

// TestOracleCatchesCorruption corrupts one collective result at a time
// and requires the oracle to reject each.
func TestOracleCatchesCorruption(t *testing.T) {
	rd := round{seed: 11, op: 5, n: 4096}
	tr := benchTree()
	root := tr.Pid(tr.FastestLeaf())
	other := (root + 1) % 8
	cases := []struct {
		name    string
		pid     int
		corrupt func(r *roundResults)
	}{
		{"bcast byte", other, func(r *roundResults) { r.bcast[17] ^= 1 }},
		{"gather piece", root, func(r *roundResults) { r.gather[other][0] ^= 0x80 }},
		{"gather missing", root, func(r *roundResults) { delete(r.gather, other) }},
		{"gather at non-root", other, func(r *roundResults) { r.gather = map[int][]byte{} }},
		{"scatter piece", other, func(r *roundResults) { r.scatter = r.scatter[1:] }},
		{"allgather swapped", other, func(r *roundResults) {
			r.allgather[0], r.allgather[1] = r.allgather[1], r.allgather[0]
		}},
		{"reduce element", root, func(r *roundResults) { r.vec[vecReduce][2]++ }},
		{"reduce at non-root", other, func(r *roundResults) { r.vec[vecReduce] = []int64{} }},
		{"allreduce width", other, func(r *roundResults) { r.vec[vecAllReduce] = r.vec[vecAllReduce][:1] }},
		{"scan exclusive", other, func(r *roundResults) { r.vec[vecScan][0] = 0 }},
		{"alltoall piece", other, func(r *roundResults) { r.alltoall[root][3] ^= 4 }},
		{"alltoall foreign pid", other, func(r *roundResults) { r.alltoall[99] = r.alltoall[root] }},
	}
	for _, tc := range cases {
		d, res := virtualRound(t, rd)
		if err := d.check(rd, tc.pid, res[tc.pid]); err != nil {
			t.Fatalf("%s: uncorrupted result rejected: %v", tc.name, err)
		}
		tc.corrupt(res[tc.pid])
		if err := d.check(rd, tc.pid, res[tc.pid]); err == nil {
			t.Errorf("%s: corrupted result accepted", tc.name)
		}
	}
}

func TestRingOracle(t *testing.T) {
	want := make([]byte, ringMsgLen)
	stamp(want, 3, 9, 1, 2, 0)
	good := []hbsp.Message{{Src: 1, Tag: 0, Payload: append([]byte(nil), want...)}}
	if err := checkRing(good, 1, 0, want); err != nil {
		t.Fatalf("correct ring message rejected: %v", err)
	}
	bad := append([]byte(nil), want...)
	bad[ringMsgLen-1] ^= 1
	for name, moves := range map[string][]hbsp.Message{
		"payload": {{Src: 1, Tag: 0, Payload: bad}},
		"src":     {{Src: 2, Tag: 0, Payload: want}},
		"tag":     {{Src: 1, Tag: 1, Payload: want}},
		"none":    nil,
		"extra":   {good[0], good[0]},
	} {
		if checkRing(moves, 1, 0, want) == nil {
			t.Errorf("%s: wrong ring delivery accepted", name)
		}
	}
}

// TestCorruptedOpFailsTheRun checks that a failed op reaches the
// run's verdict.
func TestCorruptedOpFailsTheRun(t *testing.T) {
	l := newLoop(sessionCfg{warmup: 1, measure: true, maxOps: 1}, nil)
	l.begin(0)
	l.end(0, time.Microsecond, 1)
	l.begin(1)
	l.fail(1, os.ErrInvalid)
	l.end(1, time.Microsecond, 1)
	if !l.done(1) {
		t.Fatal("loop did not stop after maxOps timed ops")
	}
	s := l.finish(time.Now(), nil)
	res := tally([]*session{s})
	if res.Correct || res.Failed != 1 || res.Attempted != 2 {
		t.Fatalf("tally = %+v, want one failed op of two, incorrect", res)
	}
}

func TestVirtualSweepIsDeterministic(t *testing.T) {
	digest := func(seed int64) []float64 {
		s, err := virtualSession(sessionCfg{seed: seed, warmup: 2, measure: true, maxOps: 6})
		if err != nil || s.failed != 0 {
			t.Fatalf("virtual session: err=%v failed=%d %s", err, s.failed, s.err)
		}
		return s.totals
	}
	a, b := digest(5), digest(5)
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("ran %d and %d ops, want 8", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("op %d: modeled totals %v and %v differ under one seed", i, a[i], b[i])
		}
	}
	c := digest(6)
	same := true
	for i := range a {
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds gave identical modeled totals")
	}
}

func TestSizeStream(t *testing.T) {
	s := newSizeStream(1)
	seen := map[uint8]bool{}
	for i := 0; i < 4*strata; i++ {
		n := s.next()
		if n < minRound || n > maxRound || n%64 != 0 {
			t.Fatalf("round size %d out of range or not a multiple of 64", n)
		}
		seen[plan.Bucket(n)] = true
	}
	if want := plan.Bucket(maxRound) - plan.Bucket(minRound); len(seen) < int(want) {
		t.Fatalf("rounds visited %d size buckets, want at least %d", len(seen), want)
	}
}

// TestWorkloadSessions runs every workload briefly, untraced and
// traced, and checks the per-layer attribution the traced run claims.
func TestWorkloadSessions(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			// Three ops per engine run: the timed ops span runs.
			s, err := w.session(sessionCfg{seed: 2, warmup: 3, epoch: 3, measure: true, maxOps: 4, traced: traced})
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if s.failed != 0 || s.ops != 7 || len(s.lat) != 4 {
				t.Fatalf("%s traced=%v: ops=%d timed=%d failed=%d %s", w.name, traced, s.ops, len(s.lat), s.failed, s.err)
			}
			if !traced {
				continue
			}
			m := s.layers
			if len(m) != len(perLayerMetrics) {
				t.Errorf("%s: %d per-layer metrics", w.name, len(m))
			}
			if m["obsv.child_span_frac"] < 0.9 {
				t.Errorf("%s: child spans cover %.3f of the op span, want >= 0.9", w.name, m["obsv.child_span_frac"])
			}
			for name, v := range m {
				wire := strings.HasPrefix(name, "wiretrans.")
				if wire && w.name != "ring-unix" && v != 0 {
					t.Errorf("%s: %s = %v on an in-proc workload", w.name, name, v)
				}
				if wire && w.name == "ring-unix" && v <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.name, name, v)
				}
			}
			if steps := m["hbsp.supersteps_per_op"]; strings.HasPrefix(w.name, "ring") && steps != 3 {
				t.Errorf("%s: %v supersteps per op, want 3", w.name, steps)
			}
			checkSpanFile(t, w.name, s.spans)
		}
	}
}

// checkSpanFile writes a session's spans out and checks their links:
// every op has an op span, and every other span but a Run span names
// its op's span as parent.
func checkSpanFile(t *testing.T, name string, spans []span) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, spans, 3); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	var recs []struct{ ID, Parent, Name string }
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var r struct{ ID, Parent, Name string }
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("%s: span line %q: %v", name, line, err)
		}
		ids[r.ID] = true
		recs = append(recs, r)
	}
	runs := 0
	for _, r := range recs {
		switch {
		case r.Name == "run":
			runs++
		case r.Name != "op" && !ids[r.Parent]:
			t.Errorf("%s: span %s has no parent %q", name, r.ID, r.Parent)
		}
	}
	if len(recs) == 0 || runs == 0 {
		t.Errorf("%s: %d spans written, %d of them Run spans", name, len(recs), runs)
	}
}

// TestRunOutput checks the result line of an untraced run.
func TestRunOutput(t *testing.T) {
	w, err := findWorkload("ring-inproc")
	if err != nil {
		t.Fatal(err)
	}
	res, err := run(w, 1, 50*time.Millisecond, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
		t.Fatalf("result %+v", res)
	}
	if len(res.Metrics) != len(endToEndMetrics) {
		t.Fatalf("%d metrics, want %d", len(res.Metrics), len(endToEndMetrics))
	}
	for _, d := range endToEndMetrics {
		if m := res.Metrics[d.name]; !(m.Value > 0) || m.Unit != d.unit {
			t.Errorf("%s = %+v", d.name, m)
		}
	}
}

// TestBenchmarkJSONMatchesTheBinary keeps BENCHMARK.json's workloads
// and metrics in step with what the binary runs and prints.
func TestBenchmarkJSONMatchesTheBinary(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricJSON `json:"end_to_end"`
		PerLayer  []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the binary runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the binary", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, js []metricJSON, defs []metricDef) {
		if len(js) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the binary", kind, len(js), len(defs))
		}
		for i, d := range defs {
			if js[i].Name != d.name || js[i].Unit != d.unit || js[i].Better != d.better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the binary", kind, i, js[i], d)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndMetrics)
	same("per_layer", b.PerLayer, perLayerMetrics)
}

type metricJSON struct {
	Name, Unit, Better string
}
