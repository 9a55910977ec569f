package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hbspk/internal/analysis"
)

// The tests drive run directly: exit codes 0-3, the -list names and
// the -json shape are the contract check.sh and editor integrations
// rely on. They change the working directory into the fixture module
// (testdata/module, its own go.mod), so none of them is parallel.

// vet runs the command with args from dir (relative to this package)
// and returns its exit code and output.
func vet(t *testing.T, dir string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

const fixture = "testdata/module"

func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"clean package", []string{"./clean"}, 0},
		{"pidtaint finding", []string{"./finding"}, 1},
		{"bad flag", []string{"-nope", "./clean"}, 2},
		{"retired -align flag", []string{"-align", "./clean"}, 2},
		{"retired analyzer name", []string{"-run", "syncdiscipline", "./clean"}, 2},
		{"unloadable pattern", []string{"./nonexistent"}, 2},
		{"unknown tree", []string{"-tree", "no-such-tree", "./clean"}, 2},
		{"advice only", []string{"-tree", "grid", "-cost-ratio", "1.2", "./advice"}, 3},
		{"advice below the ratio", []string{"-tree", "grid", "-cost-ratio", "10", "./advice"}, 0},
		{"subset misses the finding", []string{"-run", "bufown,uncheckedrun", "./finding"}, 0},
	}
	for _, c := range cases {
		code, stdout, stderr := vet(t, fixture, c.args...)
		if code != c.want {
			t.Errorf("%s: hbspk-vet %s exited %d, want %d\nstdout:\n%s\nstderr:\n%s",
				c.name, strings.Join(c.args, " "), code, c.want, stdout, stderr)
		}
	}
}

func TestFindingText(t *testing.T) {
	code, stdout, stderr := vet(t, fixture, "./finding")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.HasPrefix(stdout, "finding/finding.go:13:5: pid-divergent branches synchronize differently") ||
		!strings.HasSuffix(stdout, "(pidtaint)\n") {
		t.Errorf("finding line = %q", stdout)
	}
	if !strings.Contains(stderr, "1 finding(s) in 1 package(s)") {
		t.Errorf("summary = %q", stderr)
	}
}

func TestList(t *testing.T) {
	code, stdout, _ := vet(t, fixture, "-list")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	var want []string
	for _, a := range analysis.All() {
		want = append(want, a.Name)
	}
	want = append(want, analysis.StaleIgnoreName, analysis.VariantCheckName)
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("-list names = %v, want %v", names, want)
	}
	if len(analysis.All()) != 8 {
		t.Errorf("suite has %d analyzers, want 8 (one per rule)", len(analysis.All()))
	}
}

func TestJSONShape(t *testing.T) {
	code, stdout, _ := vet(t, fixture, "-json", "./finding")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	var diags []map[string]any
	if err := json.Unmarshal([]byte(stdout), &diags); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, stdout)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1", len(diags))
	}
	d := diags[0]
	want := map[string]any{
		"file": "finding/finding.go", "line": 13.0, "col": 5.0,
		"endLine": 13.0, "endCol": 17.0, "analyzer": "pidtaint",
	}
	for k, v := range want {
		if d[k] != v {
			t.Errorf("%s = %v, want %v", k, d[k], v)
		}
	}
	if msg, _ := d["message"].(string); !strings.HasPrefix(msg, "pid-divergent branches") {
		t.Errorf("message = %q", msg)
	}
	if len(d) != len(want)+1 {
		t.Errorf("diagnostic has keys %v, want exactly %v plus message", d, want)
	}

	// A clean run is an empty array, not null.
	code, stdout, _ = vet(t, fixture, "-json", "./clean")
	if code != 0 || strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean -json = %d %q, want 0 []", code, stdout)
	}
}

func TestAdviceIsFlagged(t *testing.T) {
	code, stdout, _ := vet(t, fixture, "-json", "-cost", "-tree", "grid", "-cost-ratio", "1.2", "./advice")
	if code != 3 {
		t.Fatalf("exit %d, want 3", code)
	}
	// -cost prints the bounds and the switchpoint table ahead of the
	// JSON array.
	i := strings.Index(stdout, "\n[")
	if i < 0 || !strings.Contains(stdout[:i], "variant switchpoints on this tree") {
		t.Fatalf("missing cost report before the JSON:\n%s", stdout)
	}
	var diags []struct {
		Analyzer string
		Advice   bool
	}
	if err := json.Unmarshal([]byte(stdout[i+1:]), &diags); err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Analyzer != analysis.VariantCheckName || !diags[0].Advice {
		t.Errorf("advice diagnostics = %+v", diags)
	}
}

func TestArtifacts(t *testing.T) {
	dir := t.TempDir()
	sarif := filepath.Join(dir, "out", "vet.sarif")
	code, _, stderr := vet(t, fixture, "-sarif", sarif, "./clean")
	if code != 0 {
		t.Fatalf("exit %d, want 0: %s", code, stderr)
	}
	data, err := os.ReadFile(sarif)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"version": "2.1.0"`)) || bytes.Contains(data, []byte(`"ruleId"`)) {
		t.Errorf("clean SARIF log should be 2.1.0 with no results:\n%s", data)
	}

	code, stdout, _ := vet(t, fixture, "-commgraph-out", "-", "./clean")
	if code != 0 || !strings.Contains(stdout, `"schema": "hbspk-commgraph/1"`) {
		t.Errorf("-commgraph-out - = %d\n%s", code, stdout)
	}
}

// TestConformanceGate: a run whose deliveries all follow declared
// edges passes, a forged undeclared send fails, and bad input is a
// usage error.
func TestConformanceGate(t *testing.T) {
	graph := filepath.Join("testdata", "conformance", "graph.json")
	forged := filepath.Join("testdata", "conformance", "events-undeclared.jsonl")
	data, err := os.ReadFile(forged)
	if err != nil {
		t.Fatal(err)
	}
	var genuine []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !strings.Contains(line, `"tag":9999`) {
			genuine = append(genuine, line)
		}
	}
	if len(genuine) == 0 {
		t.Fatal("no declared deliveries in the forged run")
	}
	events := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(events, []byte(strings.Join(genuine, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	if code, stdout, stderr := vet(t, ".", "-conform-graph", graph, "-conform-events", events); code != 0 {
		t.Errorf("genuine run rejected: exit %d\n%s%s", code, stdout, stderr)
	}
	code, _, stderr := vet(t, ".", "-conform-graph", graph, "-conform-events", forged)
	if code != 1 || !strings.Contains(stderr, "conformance gate FAILED") {
		t.Errorf("undeclared send: exit %d, stderr %q; want 1 and a FAILED line", code, stderr)
	}
	for _, args := range [][]string{
		{"-conform-graph", graph},
		{"-conform-graph", "missing.json", "-conform-events", events},
		{"-conform-graph", graph, "-conform-events", "missing.jsonl"},
		{"-conform-graph", forged, "-conform-events", events},
	} {
		if code, _, _ := vet(t, ".", args...); code != 2 {
			t.Errorf("hbspk-vet %s exited %d, want 2", strings.Join(args, " "), code)
		}
	}
}
