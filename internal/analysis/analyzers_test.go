package analysis

import (
	"strings"
	"testing"
)

// runGolden applies one analyzer to its fixture package and fails on
// any mismatch with the `// want` expectations.
func runGolden(t *testing.T, a *Analyzer, pattern string) {
	t.Helper()
	res, err := Golden(a, "testdata", pattern)
	if err != nil {
		t.Fatalf("golden run: %v", err)
	}
	for _, p := range res.Problems {
		t.Errorf("%s", p)
	}
	if len(res.Diagnostics) == 0 {
		t.Errorf("analyzer %s reported nothing on its fixture", a.Name)
	}
}

func TestCommGraphGolden(t *testing.T) {
	t.Parallel()
	runGolden(t, CommGraph, "commgraph")
}

func TestSyncFlowGolden(t *testing.T) {
	t.Parallel()
	runGolden(t, SyncFlow, "syncflow")
}

func TestPidTaintGolden(t *testing.T) {
	t.Parallel()
	runGolden(t, PidTaint, "pidtaint")
}

func TestBufOwnGolden(t *testing.T) {
	t.Parallel()
	runGolden(t, BufOwn, "bufown")
}

func TestUncheckedRunGolden(t *testing.T) {
	t.Parallel()
	runGolden(t, UncheckedRun, "uncheckedrun")
}

func TestCostParamsGolden(t *testing.T) {
	t.Parallel()
	runGolden(t, CostParams, "costparams")
}

func TestLockOrderGolden(t *testing.T) {
	t.Parallel()
	runGolden(t, LockOrder, "lockorder")
}

// TestSuiteOnRepo runs the full suite over the repository itself: the
// tree must stay clean, so hbspk-vet can gate CI. This doubles as an
// integration test of the module-aware loader.
func TestSuiteOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module from source")
	}
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	loader.IncludeTests = true
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages from the module", len(pkgs))
	}
	diags, err := RunAnalyzers(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		pos := loader.Fset().Position(d.Pos)
		t.Errorf("%s: %s (%s)", pos, d.Message, d.Analyzer)
	}
}

// TestIgnoreDirectiveParsing pins the suppression comment grammar: one
// analyzer name, then a free-form audit note. A comma-joined list is a
// single (unknown) name, which the stale-directive sweep reports.
func TestIgnoreDirectiveParsing(t *testing.T) {
	t.Parallel()
	cases := []struct {
		text string
		name string
		ok   bool
	}{
		{"//hbspk:ignore", "", true},
		{"//hbspk:ignore pidtaint", "pidtaint", true},
		{"//hbspk:ignore bufown trailing words", "bufown", true},
		{"//hbspk:ignore\tbufown", "bufown", true},
		{"//hbspk:ignore pidtaint,bufown deliberate", "pidtaint,bufown", true},
		{"// regular comment", "", false},
		{"//hbspk:ignored", "", false}, // a longer word is not the directive
	}
	for _, c := range cases {
		name, ok := parseIgnore(c.text)
		if ok != c.ok || name != c.name {
			t.Errorf("parseIgnore(%q) = %q, %v; want %q, %v", c.text, name, ok, c.name, c.ok)
		}
	}
}

// TestWantPatternSplitting pins the golden-comment grammar.
func TestWantPatternSplitting(t *testing.T) {
	t.Parallel()
	got := splitWantPatterns("\"first\" `second` \"with \\\" quote\"")
	want := []string{"first", "second", `with " quote`}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("splitWantPatterns = %q, want %q", got, want)
	}
}
