// Command hbspk-benchjson converts `go test -bench` output into
// machine-readable JSON and checks it against ratio gates, so CI can
// diff runs and hold the repo's improvement claims without scraping
// text.
//
// Usage:
//
//	hbspk-benchjson [-o BENCH.json] [-baseline old.txt] [-gates bench/gates.txt] [run.txt ...]
//
// Input files (or stdin when none are given) hold raw `go test -bench`
// output; every row records the package named by the `pkg:` header
// above it. With -baseline, benchmarks present on both sides gain an
// improvement entry (baseline / current, so values above 1 mean the
// current run wins). With -gates, every gate whose package has a
// `pkg:` header in the input is checked (see parseGate for the line
// format) and each compared pair is recorded in the JSON.
//
// Exit status: 0 when every applicable gate holds, 1 when one fails,
// 2 on a bad flag, an unreadable input or a malformed gate line.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name        string             `json:"name"`
	Pkg         string             `json:"pkg,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"b_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	MBPerS      float64            `json:"mb_per_s,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`

	// units holds every value/unit pair of the line, ns/op, B/op and
	// allocs/op included, so gates treat them like any custom metric.
	units map[string]float64
}

// Improvement compares one benchmark across the baseline and current
// runs as baseline/current ratios: above 1 means the current run wins.
type Improvement struct {
	Name         string  `json:"name"`
	NsFactor     float64 `json:"ns_factor"`
	BytesFactor  float64 `json:"b_factor,omitempty"`
	AllocsFactor float64 `json:"allocs_factor,omitempty"`
}

// GatePair is one benchmark checked against its partner under a gate:
// it passes when Value <= factor × BaseValue.
type GatePair struct {
	Gate      string  `json:"gate"`
	Name      string  `json:"name"`
	Base      string  `json:"base"`
	Value     float64 `json:"value"`
	BaseValue float64 `json:"base_value"`
	Pass      bool    `json:"pass"`
}

// Report is the emitted document.
type Report struct {
	Env          map[string]string `json:"env,omitempty"`
	Benchmarks   []Benchmark       `json:"benchmarks"`
	Baseline     []Benchmark       `json:"baseline,omitempty"`
	Improvements []Improvement     `json:"improvements,omitempty"`
	Gates        []GatePair        `json:"gates,omitempty"`
}

// gomaxprocsSuffix is the trailing -N go test appends to benchmark
// names; it is stripped for display and baseline matching.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parse reads `go test -bench` output, returning result lines tagged
// with their package. Header metadata (goos, goarch, cpu) lands in env
// and every `pkg:` header in pkgs; either may be nil.
func parse(r io.Reader, env map[string]string, pkgs map[string]bool) ([]Benchmark, error) {
	var out []Benchmark
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if k, v, ok := strings.Cut(line, ": "); ok {
			switch k {
			case "pkg":
				pkg = v
				if pkgs != nil {
					pkgs[v] = true
				}
			case "goos", "goarch", "cpu":
				if env != nil {
					env[k] = v
				}
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue // e.g. "BenchmarkX --- FAIL"
		}
		b := Benchmark{
			Name:       gomaxprocsSuffix.ReplaceAllString(f[0], ""),
			Pkg:        pkg,
			Iterations: iters,
			units:      map[string]float64{},
		}
		// The rest of the line is value/unit pairs; unknown units are
		// custom b.ReportMetric metrics.
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q", b.Name, f[i])
			}
			unit := f[i+1]
			b.units[unit] = v
			switch unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			case "MB/s":
				b.MBPerS = v
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
		out = append(out, b)
	}
	return out, sc.Err()
}

func parseFile(path string, env map[string]string, pkgs map[string]bool) ([]Benchmark, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f, env, pkgs)
}

// byName indexes rows by package and name.
func byName(bs []Benchmark) map[string]Benchmark {
	m := make(map[string]Benchmark, len(bs))
	for _, b := range bs {
		m[b.Pkg+" "+b.Name] = b
	}
	return m
}

func ratio(base, cur float64) float64 {
	if cur == 0 {
		return 0
	}
	return base / cur
}

// gate is one line of a gates file.
type gate struct {
	line     string // the line as written, for messages and the report
	pkg      string // Go package whose benchmarks the gate checks
	name     string // name prefix of the gated benchmarks
	unit     string
	factor   float64
	base     string // partner name prefix, "baseline:" for the -baseline run
	minPairs int
}

// parseGate reads one gate line:
//
//	PKG NAME UNIT <= FACTOR x BASE pairs>=N
//
// Every benchmark of package PKG whose name starts with NAME is paired
// with the benchmark named BASE plus the rest of its name — in the
// same run, or in the -baseline run when BASE is `baseline:<prefix>` —
// and must report UNIT (ns/op, B/op, allocs/op or any b.ReportMetric
// unit) at most FACTOR times its partner's. At least N pairs must
// match, so a grid cannot silently shrink out from under the gate.
func parseGate(line string) (gate, error) {
	f := strings.Fields(line)
	if len(f) != 8 || f[3] != "<=" || f[5] != "x" || !strings.HasPrefix(f[7], "pairs>=") {
		return gate{}, fmt.Errorf("want `PKG NAME UNIT <= FACTOR x BASE pairs>=N`, got %q", line)
	}
	g := gate{line: strings.Join(f, " "), pkg: f[0], name: f[1], unit: f[2], base: f[6]}
	var err error
	if g.factor, err = strconv.ParseFloat(f[4], 64); err != nil || !(g.factor > 0) {
		return gate{}, fmt.Errorf("bad factor %q in %q", f[4], line)
	}
	if g.minPairs, err = strconv.Atoi(strings.TrimPrefix(f[7], "pairs>=")); err != nil || g.minPairs < 1 {
		return gate{}, fmt.Errorf("bad pair pin %q in %q (want pairs>=N, N >= 1)", f[7], line)
	}
	return g, nil
}

// parseGates reads a gates file: one gate per line, blank lines and
// #-comments ignored.
func parseGates(path string) ([]gate, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var gates []gate
	for i, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		g, err := parseGate(line)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, i+1, err)
		}
		gates = append(gates, g)
	}
	return gates, nil
}

// check applies g to the current run, appending every compared pair to
// rep.Gates so the JSON records the margins even when the gate trips.
// It returns the first violation. A zero base admits only a zero value,
// and a zero value satisfies any base.
func (g gate) check(rep *Report, cur, baseline map[string]Benchmark) error {
	partners, basePrefix := cur, g.base
	if p, ok := strings.CutPrefix(g.base, "baseline:"); ok {
		partners, basePrefix = baseline, p
	}
	var firstErr error
	fail := func(format string, args ...any) {
		if firstErr == nil {
			firstErr = fmt.Errorf("gate %q: %s", g.line, fmt.Sprintf(format, args...))
		}
	}
	pairs := 0
	for _, b := range rep.Benchmarks {
		if b.Pkg != g.pkg || !strings.HasPrefix(b.Name, g.name) {
			continue
		}
		baseName := basePrefix + strings.TrimPrefix(b.Name, g.name)
		o, ok := partners[g.pkg+" "+baseName]
		if !ok {
			fail("%s has no partner %s", b.Name, baseName)
			continue
		}
		v, ok := b.units[g.unit]
		bv, baseOK := o.units[g.unit]
		if !ok || !baseOK {
			fail("%s vs %s: %s missing from one side", b.Name, baseName, g.unit)
			continue
		}
		pairs++
		pass := v <= g.factor*bv
		rep.Gates = append(rep.Gates, GatePair{Gate: g.line, Name: b.Name, Base: baseName, Value: v, BaseValue: bv, Pass: pass})
		if !pass {
			fail("%s: %.4g %s > %g x %s's %.4g", b.Name, v, g.unit, g.factor, baseName, bv)
		}
	}
	if pairs < g.minPairs {
		fail("matched %d pairs, need >= %d", pairs, g.minPairs)
	}
	return firstErr
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its streams injected; it returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("hbspk-benchjson", flag.ContinueOnError)
	flags.SetOutput(stderr)
	out := flags.String("o", "", "write JSON here instead of stdout")
	baselinePath := flags.String("baseline", "", "earlier `go test -bench` output to diff against and for baseline: gates")
	gatesPath := flags.String("gates", "", "gates file to check (one `PKG NAME UNIT <= FACTOR x BASE pairs>=N` per line)")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "hbspk-benchjson:", err)
		return 2
	}

	var gates []gate
	var err error
	if *gatesPath != "" {
		if gates, err = parseGates(*gatesPath); err != nil {
			return fatal(err)
		}
	}
	rep := Report{Env: map[string]string{}}
	pkgs := map[string]bool{}
	if paths := flags.Args(); len(paths) > 0 {
		for _, path := range paths {
			bs, err := parseFile(path, rep.Env, pkgs)
			if err != nil {
				return fatal(err)
			}
			rep.Benchmarks = append(rep.Benchmarks, bs...)
		}
	} else if rep.Benchmarks, err = parse(os.Stdin, rep.Env, pkgs); err != nil {
		return fatal(err)
	}

	if *baselinePath != "" {
		if rep.Baseline, err = parseFile(*baselinePath, nil, nil); err != nil {
			return fatal(err)
		}
	}
	cur, base := byName(rep.Benchmarks), byName(rep.Baseline)
	for _, b := range rep.Benchmarks {
		if o, ok := base[b.Pkg+" "+b.Name]; ok {
			rep.Improvements = append(rep.Improvements, Improvement{
				Name:         b.Name,
				NsFactor:     ratio(o.NsPerOp, b.NsPerOp),
				BytesFactor:  ratio(o.BytesPerOp, b.BytesPerOp),
				AllocsFactor: ratio(o.AllocsPerOp, b.AllocsPerOp),
			})
		}
	}

	var gateErrs []error
	for _, g := range gates {
		if !pkgs[g.pkg] {
			continue
		}
		if err := g.check(&rep, cur, base); err != nil {
			gateErrs = append(gateErrs, err)
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fatal(err)
	}
	data = append(data, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return fatal(err)
		}
	} else if _, err := stdout.Write(data); err != nil {
		return fatal(err)
	}

	for _, err := range gateErrs {
		fmt.Fprintln(stderr, "hbspk-benchjson:", err)
	}
	if len(gateErrs) > 0 {
		return 1
	}
	return 0
}
