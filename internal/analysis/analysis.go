// Package analysis is hbspk's static-analysis toolkit: a small,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) plus a module-aware package
// loader built on go/parser and go/types, and the HBSP^k-specific
// analyzers themselves.
//
// The analyzers encode the correctness invariants of the HBSP^k
// programming model (§5.1's HBSPlib) that the compiler cannot check,
// one analyzer per rule:
//
//   - pidtaint: every processor of a scope must reach the same sequence
//     of synchronizing operations; pid-divergent branches and loops are
//     compared on their sync sequences, interprocedurally.
//   - commgraph: per-superstep send/recv topology — no sends left
//     unmatched after the last barrier, no Moves() read before the
//     first delivery window, no processor-divergent scope arguments.
//   - syncflow: delivered buffers (the Moves() window) must not be read
//     past a later Sync.
//   - bufown: pooled wire buffers are released exactly once and never
//     touched after release; sent data is never touched again (no
//     resend, no packing into a sent *pvm.Buffer, no mutation of a
//     []byte payload after Ctx.Send queued it).
//   - uncheckedrun: errors from Run/Sync/Send/collective calls must not
//     be dropped; a swallowed desync error is a silent wrong answer.
//   - costparams: literal model parameters (g, r, L, c shares) must be
//     in their valid ranges, and trees must be normalized before running.
//   - costbound: symbolic per-superstep cost bounds; reports the
//     hand-rolled flat fan-out that ignores the hierarchy.
//   - lockorder: no inverted mutex acquisition orders, and no lock may
//     be taken while holding pvm.System's leaf lock.
//
// The suite is exposed on the command line as cmd/hbspk-vet, a
// multichecker in the style of go vet.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. The zero analyzer is invalid: Name, Doc
// and Run are all required.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command
	// line; it must be a valid Go identifier.
	Name string
	// Doc is the analyzer's help text; the first line is its summary.
	Doc string
	// Run applies the analyzer to one type-checked package, reporting
	// findings through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one finding. The driver fills it in.
	Report func(Diagnostic)

	// noLint maps file base name to the set of lines carrying an
	// analyzer suppression directive.
	noLint map[string]map[int]map[string]bool

	// fired, when non-nil, records every directive that actually
	// suppressed a finding, keyed by ignoreKey; the driver uses it to
	// flag stale directives after all analyzers have run.
	fired map[string]bool

	// pkg, when set by the driver, carries the loaded package so
	// analyzers can share per-package computations (the call graph,
	// per-function summaries) instead of rebuilding them per pass.
	pkg *Package
}

// ignoreKey identifies one suppression directive by its line and the
// analyzer it names ("" for the bare form).
func ignoreKey(file string, line int, name string) string {
	return fmt.Sprintf("%s:%d:%s", file, line, name)
}

// Diagnostic is one finding at a source position. End, when valid,
// closes the finding's source range (exclusive), giving SARIF regions
// and editor integrations a precise extent; a zero End means the
// finding is a point at Pos.
type Diagnostic struct {
	Pos      token.Pos
	End      token.Pos
	Message  string
	Analyzer string
}

// Reportf reports a formatted finding at pos unless the line carries an
// `//hbspk:ignore <name>` (or bare `//hbspk:ignore`) directive.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportRangef(pos, token.NoPos, format, args...)
}

// ReportRangef reports a formatted finding spanning [pos, end), subject
// to the same suppression directives as Reportf. Analyzers that hold the
// offending node pass its Pos/End pair so downstream consumers (SARIF,
// -json) get the full extent rather than a single column.
func (p *Pass) ReportRangef(pos, end token.Pos, format string, args ...any) {
	if p.suppressed(pos) {
		return
	}
	p.Report(Diagnostic{Pos: pos, End: end, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// suppressed reports whether pos's line carries an ignore directive for
// this analyzer.
func (p *Pass) suppressed(pos token.Pos) bool {
	if p.noLint == nil {
		p.buildNoLint()
	}
	position := p.Fset.Position(pos)
	lines := p.noLint[position.Filename]
	if lines == nil {
		return false
	}
	names := lines[position.Line]
	if names == nil {
		return false
	}
	hit := false
	if names[""] {
		p.markFired(position.Filename, position.Line, "")
		hit = true
	}
	if names[p.Analyzer.Name] {
		p.markFired(position.Filename, position.Line, p.Analyzer.Name)
		hit = true
	}
	return hit
}

func (p *Pass) markFired(file string, line int, name string) {
	if p.fired != nil {
		p.fired[ignoreKey(file, line, name)] = true
	}
}

func (p *Pass) buildNoLint() {
	p.noLint = make(map[string]map[int]map[string]bool)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				position := p.Fset.Position(c.Pos())
				lines := p.noLint[position.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					p.noLint[position.Filename] = lines
				}
				if lines[position.Line] == nil {
					lines[position.Line] = make(map[string]bool)
				}
				lines[position.Line][name] = true
			}
		}
	}
}

// parseIgnore recognizes `//hbspk:ignore` (the bare form, returned as
// the name "") and `//hbspk:ignore name ...`: the first word names the
// analyzer, the rest of the comment is the audit note.
func parseIgnore(text string) (name string, ok bool) {
	const prefix = "//hbspk:ignore"
	if len(text) < len(prefix) || text[:len(prefix)] != prefix {
		return "", false
	}
	rest := text[len(prefix):]
	if len(rest) > 0 && rest[0] != ' ' && rest[0] != '\t' {
		return "", false // e.g. //hbspk:ignored is not a directive
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", true
	}
	return fields[0], true
}

// All returns the full hbspk-vet suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		PidTaint,
		CommGraph,
		SyncFlow,
		BufOwn,
		UncheckedRun,
		CostParams,
		CostBound,
		LockOrder,
	}
}

// knownAnalyzerNames is the universe of names an //hbspk:ignore
// directive may legitimately cite: the full suite plus the analyzers
// that exist outside All() (the stale-directive sweep itself and the
// tree-parameterized variant advice). A directive naming anything else
// is rename rot — the analyzer it once silenced no longer exists under
// that name, so the directive silences nothing and never will.
func knownAnalyzerNames() map[string]bool {
	known := map[string]bool{
		StaleIgnoreName:  true,
		VariantCheckName: true,
	}
	for _, a := range All() {
		known[a.Name] = true
	}
	return known
}

// StaleIgnoreName is the pseudo-analyzer under which unused suppression
// directives are reported: an //hbspk:ignore that suppresses nothing is
// stale — the code it excused has moved or been fixed — and stale
// directives mask future regressions on their line.
const StaleIgnoreName = "staleignore"

// RunAnalyzers applies every analyzer to every package and returns the
// findings sorted by position, followed by a stale-directive sweep:
// an ignore directive naming an analyzer in this run (or a bare ignore,
// when the full suite ran) that suppressed nothing is itself reported
// under StaleIgnoreName. Directives naming analyzers outside the run
// set are not judged. Analyzer runtime errors are returned after the
// diagnostics collected so far.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	var firstErr error
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, pkg := range pkgs {
		fired := make(map[string]bool)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report:    func(d Diagnostic) { diags = append(diags, d) },
				fired:     fired,
				pkg:       pkg,
			}
			if err := a.Run(pass); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
		diags = append(diags, staleIgnores(pkg, ran, fired)...)
	}
	sortDiagnostics(pkgs, diags)
	return diags, firstErr
}

// staleIgnores reports each suppression directive in pkg that no
// analyzer of this run consumed. Bare directives can only be judged
// when every analyzer of the full suite ran.
func staleIgnores(pkg *Package, ran map[string]bool, fired map[string]bool) []Diagnostic {
	fullSuite := true
	for _, a := range All() {
		if !ran[a.Name] {
			fullSuite = false
			break
		}
	}
	known := knownAnalyzerNames()
	var out []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, ok := parseIgnore(c.Text)
				if !ok || (name == "" && !fullSuite) {
					continue
				}
				if name != "" && !known[name] {
					out = append(out, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: StaleIgnoreName,
						Message: fmt.Sprintf(
							"//hbspk:ignore %s names no analyzer (renamed or removed?): the directive silences nothing", name),
					})
					continue
				}
				if name != "" && !ran[name] {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if fired[ignoreKey(pos.Filename, pos.Line, name)] {
					continue
				}
				what := "//hbspk:ignore"
				if name != "" {
					what += " " + name
				}
				out = append(out, Diagnostic{
					Pos:      c.Pos(),
					Analyzer: StaleIgnoreName,
					Message:  fmt.Sprintf("stale %s: the directive suppresses nothing on its line", what),
				})
			}
		}
	}
	return out
}

func sortDiagnostics(pkgs []*Package, diags []Diagnostic) {
	if len(pkgs) == 0 {
		return
	}
	fset := pkgs[0].Fset
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}
