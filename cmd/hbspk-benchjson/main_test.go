package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The tests drive run directly on the committed benchmark outputs in
// bench/ and on doctored copies of them: every gate in bench/gates.txt
// must hold on the committed numbers and trip on a regression of the
// kind it exists to catch.

const (
	benchDir  = "../../bench/"
	gatesFile = benchDir + "gates.txt"
	baseline  = benchDir + "baseline_pre_pr4.txt"
)

// benchjson runs the command with args and returns its exit code, the
// decoded report (nil when none was written) and stderr.
func benchjson(t *testing.T, args ...string) (int, *Report, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	if out.Len() == 0 {
		return code, nil, errOut.String()
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	return code, &rep, errOut.String()
}

func readBench(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(benchDir + name)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func writeTemp(t *testing.T, name, text string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// valueAt locates the value benchmark name reports for unit in text:
// the fields of its line, the line's index and the value's field index.
func valueAt(t *testing.T, text, name, unit string) ([]string, int, int) {
	t.Helper()
	for at, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != name {
			continue
		}
		for i := 3; i < len(f); i += 2 {
			if f[i] == unit {
				return f, at, i - 1
			}
		}
		t.Fatalf("%s reports no %s", name, unit)
	}
	t.Fatalf("no benchmark %s", name)
	return nil, 0, 0
}

func metric(t *testing.T, text, name, unit string) float64 {
	t.Helper()
	f, _, i := valueAt(t, text, name, unit)
	v, err := strconv.ParseFloat(f[i], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func setMetric(t *testing.T, text, name, unit string, v float64) string {
	t.Helper()
	f, at, i := valueAt(t, text, name, unit)
	f[i] = strconv.FormatFloat(v, 'g', -1, 64)
	lines := strings.Split(text, "\n")
	lines[at] = strings.Join(f, "\t")
	return strings.Join(lines, "\n")
}

// deleteBench drops the lines of the named benchmarks.
func deleteBench(t *testing.T, text string, names ...string) string {
	t.Helper()
	for _, name := range names {
		_, at, _ := valueAt(t, text, name, "ns/op")
		lines := strings.Split(text, "\n")
		text = strings.Join(append(lines[:at], lines[at+1:]...), "\n")
	}
	return text
}

func TestCommittedOutputsPassEveryGate(t *testing.T) {
	cases := []struct {
		name  string
		files []string
		gates int // distinct gate lines that must apply
	}{
		{"pvm", []string{"pvm.txt"}, 4},
		{"figures", []string{"figures.txt"}, 0},
		{"reorg", []string{"reorg.txt"}, 1},
		{"planner", []string{"planner.txt"}, 3},
		{"all", []string{"pvm.txt", "figures.txt", "reorg.txt", "planner.txt"}, 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := []string{"-baseline", baseline, "-gates", gatesFile}
			for _, f := range c.files {
				args = append(args, benchDir+f)
			}
			code, rep, stderr := benchjson(t, args...)
			if code != 0 {
				t.Fatalf("exit %d, want 0:\n%s", code, stderr)
			}
			applied := map[string]bool{}
			for _, p := range rep.Gates {
				if !p.Pass {
					t.Errorf("%s vs %s failed %s", p.Name, p.Base, p.Gate)
				}
				applied[p.Gate] = true
			}
			if len(applied) != c.gates {
				t.Errorf("%d gates applied, want %d: %v", len(applied), c.gates, applied)
			}
		})
	}
}

func TestDoctoredOutputsFail(t *testing.T) {
	cases := []struct {
		name, file string
		doctor     func(t *testing.T, text string) string
		want       string // substring of the failing gate's message
	}{
		{"send-path allocs back at baseline", "pvm.txt", func(t *testing.T, text string) string {
			old := readBench(t, "baseline_pre_pr4.txt")
			return setMetric(t, text, "BenchmarkSendRecv/n=4096", "allocs/op",
				metric(t, old, "BenchmarkSendRecv/n=4096", "allocs/op"))
		}, "BenchmarkSendRecv/ allocs/op <= 0.5 x baseline:"},
		{"ObsvOff 10% slower", "pvm.txt", func(t *testing.T, text string) string {
			return setMetric(t, text, "BenchmarkSendRecvObsvOff/n=64", "ns/op",
				1.10*metric(t, text, "BenchmarkSendRecv/n=64", "ns/op"))
		}, "BenchmarkSendRecvObsvOff/ ns/op"},
		{"reorg not beating frozen by 10%", "reorg.txt", func(t *testing.T, text string) string {
			return setMetric(t, text, "BenchmarkReorgMakespan/reorg", "model-cost",
				0.95*metric(t, text, "BenchmarkReorgMakespan/frozen", "model-cost"))
		}, "BenchmarkReorgMakespan/reorg model-cost"},
		{"planner 0.2% over fixedbest", "planner.txt", func(t *testing.T, text string) string {
			return setMetric(t, text, "BenchmarkPlannerSweep/planner/bcast/ucf8/n768", "model-cost",
				1.002*metric(t, text, "BenchmarkPlannerSweep/fixedbest/bcast/ucf8/n768", "model-cost"))
		}, "BenchmarkPlannerSweep/planner/ model-cost"},
		{"one sweep cell deleted", "planner.txt", func(t *testing.T, text string) string {
			return deleteBench(t, text,
				"BenchmarkPlannerSweep/planner/gather/ucf8/n768",
				"BenchmarkPlannerSweep/fixedbest/gather/ucf8/n768")
		}, "matched 23 pairs, need >= 24"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := writeTemp(t, c.file, c.doctor(t, readBench(t, c.file)))
			code, rep, stderr := benchjson(t, "-baseline", baseline, "-gates", gatesFile, in)
			if code != 1 {
				t.Fatalf("exit %d, want 1:\n%s", code, stderr)
			}
			if !strings.Contains(stderr, c.want) {
				t.Errorf("stderr lacks %q:\n%s", c.want, stderr)
			}
			if rep == nil || len(rep.Benchmarks) == 0 {
				t.Error("a failing gate must still write the report")
			}
		})
	}
}

// The single rule value <= factor × base fails a nonzero value against
// a zero base and passes a zero value against any base.
func TestZeroBase(t *testing.T) {
	gates := writeTemp(t, "gates.txt", "example/p BenchmarkA/x widgets <= 1.05 x BenchmarkA/y pairs>=1\n")
	cases := []struct {
		x, y float64
		want int
	}{
		{5, 0, 1},
		{0, 5, 0},
		{0, 0, 0},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%g_vs_%g", c.x, c.y), func(t *testing.T) {
			in := writeTemp(t, "run.txt", fmt.Sprintf(
				"pkg: example/p\nBenchmarkA/x\t1\t10 ns/op\t%g widgets\nBenchmarkA/y\t1\t10 ns/op\t%g widgets\n", c.x, c.y))
			if code, _, stderr := benchjson(t, "-gates", gates, in); code != c.want {
				t.Errorf("exit %d, want %d:\n%s", code, c.want, stderr)
			}
		})
	}
}

// Each row carries the package of the header above it, even when one
// input holds several packages.
func TestRowsRecordTheirPackage(t *testing.T) {
	code, rep, stderr := benchjson(t, benchDir+"reorg.txt", benchDir+"pvm.txt")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
	want := map[string]string{
		"BenchmarkReorgMakespan/frozen": "hbspk/internal/hbsp",
		"BenchmarkRank":                 "hbspk/internal/model",
		"BenchmarkSendRecv/n=64":        "hbspk/internal/pvm",
	}
	for _, b := range rep.Benchmarks {
		if pkg, ok := want[b.Name]; ok && b.Pkg != pkg {
			t.Errorf("%s: pkg %q, want %q", b.Name, b.Pkg, pkg)
		}
	}
	if _, ok := rep.Env["pkg"]; ok {
		t.Errorf("env still carries a single pkg: %v", rep.Env)
	}
}

func TestUsageErrors(t *testing.T) {
	in := benchDir + "reorg.txt"
	cases := []struct {
		name string
		gate string // gates file content; "" runs without -gates
		args []string
	}{
		{"bad flag", "", []string{"-min-pairs", "26", in}},
		{"missing input", "", []string{benchDir + "no-such.txt"}},
		{"missing comparator", "p BenchmarkA ns/op 1.05 x BenchmarkB pairs>=1", []string{in}},
		{"reversed comparator", "p BenchmarkA ns/op >= 1.05 x BenchmarkB pairs>=1", []string{in}},
		{"bad factor", "p BenchmarkA ns/op <= fast x BenchmarkB pairs>=1", []string{in}},
		{"no pair pin", "p BenchmarkA ns/op <= 1.05 x BenchmarkB", []string{in}},
		{"zero pair pin", "p BenchmarkA ns/op <= 1.05 x BenchmarkB pairs>=0", []string{in}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			args := c.args
			if c.gate != "" {
				args = append([]string{"-gates", writeTemp(t, "gates.txt", "# ok\n\n"+c.gate+"\n")}, args...)
			}
			code, _, stderr := benchjson(t, args...)
			if code != 2 {
				t.Errorf("exit %d, want 2:\n%s", code, stderr)
			}
			if c.gate != "" && !strings.Contains(stderr, "gates.txt:3:") {
				t.Errorf("stderr does not name the bad line:\n%s", stderr)
			}
		})
	}
}
