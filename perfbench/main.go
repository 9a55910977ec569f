// Command perfbench is the repository's wall-clock benchmark: seeded,
// closed-loop workloads driven through the library's public entry
// points, printing end-to-end metrics (or, with -trace 1, per-layer
// metrics) and checking every op's results against oracles computed
// from the seed.
//
//	go run . -workload ring-inproc -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s and
// hbsp.run_setup_us are the medians, and only the last set-up goes on
// to the timed ops.
const setupReps = 7

// hardLimit bounds a whole run, so a hung engine fails the run instead
// of stalling it.
const hardLimit = 160 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "timed seconds per run")
	traced := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	spansDir := flag.String("spans-dir", "", "with -trace 1, write the last ops' spans into this directory as JSON lines")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: -workload <name> -seed <n> -seconds <s> -trace <0|1>")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	type outcome struct {
		res *result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		var spansOut string
		if *spansDir != "" {
			spansOut = filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
		}
		res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1, spansOut)
		done <- outcome{res, err}
	}()
	var out outcome
	select {
	case out = <-done:
	case <-time.After(hardLimit):
		out.err = fmt.Errorf("run did not finish within %v", hardLimit)
	}
	if out.err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", out.err)
		os.Exit(1)
	}
	line, err := json.Marshal(out.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.res.Correct {
		os.Exit(1)
	}
}

// run measures workload w and reports its metrics: end-to-end from an
// untraced run, or per-layer from a traced one.
func run(w workload, seed int64, dur time.Duration, traced bool, spansOut string) (*result, error) {
	if !traced {
		sessions, err := sessionsOf(w, seed, dur, false)
		if err != nil {
			return nil, err
		}
		res := tally(sessions)
		res.Metrics = endToEnd(sessions)
		report(w.name, sessions, res, endToEndMetrics)
		return res, nil
	}
	// Half the time untraced, half traced: the ratio of their median
	// op latencies is the tracing overhead.
	plain, err := sessionsOf(w, seed, dur/2, false)
	if err != nil {
		return nil, err
	}
	sessions, err := sessionsOf(w, seed, dur/2, true)
	if err != nil {
		return nil, err
	}
	last := sessions[len(sessions)-1]
	res := tally(append(plain, sessions...))
	layers := last.layers
	var runSetups []float64
	for _, s := range sessions {
		runSetups = append(runSetups, s.runSetup)
	}
	layers["hbsp.run_setup_us"] = quantile(runSetups, 0.5)
	untracedP50 := quantile(plain[len(plain)-1].lat, 0.5)
	layers["obsv.trace_overhead_frac"] = ratio(quantile(last.lat, 0.5), untracedP50) - 1
	res.Metrics = map[string]metric{}
	for _, d := range perLayerMetrics {
		res.Metrics[d.name] = metric{layers[d.name], d.unit}
	}
	report(w.name, sessions, res, perLayerMetrics)
	if spansOut != "" {
		if err := writeSpans(spansOut, last.spans, 200); err != nil {
			return nil, fmt.Errorf("spans: %w", err)
		}
	}
	return res, nil
}

// sessionsOf runs setupReps sessions of w; the last one is timed for
// dur (or, in an untraced trace-mode half, is the only one).
func sessionsOf(w workload, seed int64, dur time.Duration, traced bool) ([]*session, error) {
	var out []*session
	for rep := 0; rep < setupReps; rep++ {
		s, err := w.session(sessionCfg{
			seed:    seed,
			warmup:  w.warmup,
			epoch:   w.epoch,
			measure: rep == setupReps-1,
			dur:     dur,
			traced:  traced,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if s.failed > 0 {
			break
		}
	}
	if last := out[len(out)-1]; last.failed == 0 && len(last.lat) == 0 {
		return nil, errors.New("no op was timed")
	}
	return out, nil
}

// tally counts the ops every session attempted and failed.
func tally(sessions []*session) *result {
	res := &result{Correct: true}
	for _, s := range sessions {
		res.Attempted += s.ops
		res.Failed += s.failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res
}

// endToEnd derives the end-to-end metrics: set-up time from every
// session, the rest from the timed window of the last, rates as
// medians over its slices.
func endToEnd(sessions []*session) map[string]metric {
	var setups []float64
	for _, s := range sessions {
		setups = append(setups, s.setup.Seconds())
	}
	last := sessions[len(sessions)-1]
	rate := func(f func(ops, wall float64, from, to meter) float64) float64 {
		return sliceMedian(last.marks, f)
	}
	v := map[string]float64{
		"setup_s":   quantile(setups, 0.5),
		"op_p50_us": quantile(last.lat, 0.5),
		"op_p90_us": quantile(last.lat, 0.9),
		"ops_per_s": rate(func(ops, wall float64, _, _ meter) float64 { return ops / wall }),
		"payload_MBps": rate(func(_, wall float64, from, to meter) float64 {
			return float64(to.payload-from.payload) / wall / 1e6
		}),
		"cpu_us_per_op": rate(func(ops, _ float64, from, to meter) float64 {
			return micros(to.cpu-from.cpu) / ops
		}),
		"alloc_B_per_op": rate(func(ops, _ float64, from, to meter) float64 {
			return float64(to.alloc-from.alloc) / ops
		}),
		"max_rss_MB": maxRSSMB(),
	}
	out := map[string]metric{}
	for _, d := range endToEndMetrics {
		out[d.name] = metric{v[d.name], d.unit}
	}
	return out
}

// report prints a human-readable summary ahead of the JSON line.
func report(name string, sessions []*session, res *result, defs []metricDef) {
	last := sessions[len(sessions)-1]
	fmt.Printf("workload %s: %d timed ops, %d ops attempted, %d failed\n",
		name, len(last.lat), res.Attempted, res.Failed)
	fmt.Printf("  %-32s %14.6g %s\n", "failed_frac", ratio(float64(res.Failed), float64(res.Attempted)), "frac")
	for _, d := range defs {
		fmt.Printf("  %-32s %14.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	for _, s := range sessions {
		if s.err != "" {
			fmt.Printf("  failure: %s\n", s.err)
			break
		}
	}
}
