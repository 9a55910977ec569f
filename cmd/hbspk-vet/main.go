// Command hbspk-vet is the HBSP^k multichecker: it applies the
// internal/analysis suite — pidtaint, commgraph, syncflow, bufown,
// uncheckedrun, costparams, costbound, lockorder — to the packages
// named on the command line and exits non-zero if any invariant of the
// programming model is violated.
//
// Usage:
//
//	hbspk-vet [flags] [packages]
//
// Packages are directory patterns relative to the module root
// ("./...", "./internal/pvm", "./examples/..."); the default is "./...".
// Run it from anywhere inside the module:
//
//	go run ./cmd/hbspk-vet ./...
//
// Static cost analysis (DESIGN.md §5.6):
//
//	hbspk-vet -cost ./...                 symbolic per-superstep cost bounds
//	hbspk-vet -cost -tree ucf ./...       bounds evaluated on a machine tree,
//	                                      the variant switchpoint table, and
//	                                      collective-variant advice
//	hbspk-vet -commgraph-out g.json ./... export the static communication
//	                                      graph (hbspk-commgraph/1 JSON)
//
// Static↔runtime conformance gate: verify that every message delivery
// observed in a run's JSONL events (hbspk-sim -events-out) is explained
// by a static edge of an exported commgraph:
//
//	hbspk-vet -conform-graph g.json -conform-events run.jsonl
//
// A subset of the suite, e.g. SPMD alignment only (DESIGN.md §5.8):
//
//	hbspk-vet -run pidtaint ./...
//
// Diagnostics print as file:line:col: message (analyzer), or as a JSON
// array of {file, line, col, endLine, endCol, analyzer, message}
// objects under -json — the machine-readable form CI and editor
// integrations consume. -sarif <path> additionally writes the findings
// as a SARIF 2.1.0 log ("-" for stdout), the interchange form
// code-scanning UIs ingest.
// Individual findings can be suppressed with a trailing
// `//hbspk:ignore <analyzer>` comment after a human audit; a directive
// that no longer suppresses anything — or that names an analyzer that
// no longer exists — is itself reported (staleignore).
//
// Exit codes:
//
//	0  the analyzed packages are clean
//	1  at least one finding was reported (correctness suite, or a
//	   conformance violation in gate mode)
//	2  the run itself failed (bad flags, unloadable packages,
//	   analyzer error)
//	3  only advisory findings were reported (variantcheck advice —
//	   a cheaper collective variant is statically knowable)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"hbspk/internal/analysis"
	"hbspk/internal/model"
	"hbspk/internal/obsv"
	"hbspk/internal/plan"
)

// jsonDiagnostic is the -json wire form of one finding. End positions
// are present when the analyzer reported a range rather than a point.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	EndLine  int    `json:"endLine,omitempty"`
	EndCol   int    `json:"endCol,omitempty"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Advice   bool   `json:"advice,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes findings to stdout
// and failures to stderr, and returns the exit code documented above.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("hbspk-vet", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		listOnly  = flags.Bool("list", false, "list the analyzers and exit")
		noTests   = flags.Bool("skip-tests", false, "do not analyze _test.go files")
		only      = flags.String("run", "", "comma-separated analyzer names to run (default all)")
		asJSON    = flags.Bool("json", false, "emit findings as a JSON array on stdout")
		sarifOut  = flags.String("sarif", "", "write findings as a SARIF 2.1.0 log to this path (- for stdout)")
		cost      = flags.Bool("cost", false, "print symbolic per-superstep cost bounds for the analyzed functions")
		treeName  = flags.String("tree", "", "machine tree (preset ucf, figure1, grid, chain, or JSON spec path): evaluates -cost bounds and enables variantcheck advice")
		costRatio = flags.Float64("cost-ratio", 1.5, "variantcheck advice threshold: report when another variant is this many times cheaper")
		graphOut  = flags.String("commgraph-out", "", "write the static communication graph as hbspk-commgraph/1 JSON to this path (- for stdout)")
		confGraph = flags.String("conform-graph", "", "conformance gate: static commgraph JSON (from -commgraph-out)")
		confEv    = flags.String("conform-events", "", "conformance gate: run events JSONL (from hbspk-sim -events-out)")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *listOnly {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stdout, "%-16s %s\n", analysis.StaleIgnoreName,
			"report //hbspk:ignore directives that suppress nothing (always on)")
		fmt.Fprintf(stdout, "%-16s %s\n", analysis.VariantCheckName,
			"advise statically-profitable collective-variant switches (requires -tree; advisory)")
		return 0
	}

	// Conformance gate mode: no packages are loaded, the two artifacts
	// are checked against each other.
	if *confGraph != "" || *confEv != "" {
		if *confGraph == "" || *confEv == "" {
			return fail(fmt.Errorf("hbspk-vet: the conformance gate needs both -conform-graph and -conform-events"))
		}
		return runConformance(*confGraph, *confEv, stdout, stderr)
	}

	var tree *model.Tree
	if *treeName != "" {
		var err error
		tree, err = loadTree(*treeName)
		if err != nil {
			return fail(err)
		}
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		return fail(err)
	}
	if tree != nil {
		analyzers = append(analyzers, analysis.VariantCheck(tree, *costRatio))
	}

	moduleDir, err := findModuleRoot()
	if err != nil {
		return fail(err)
	}
	loader, err := analysis.NewLoader(moduleDir)
	if err != nil {
		return fail(err)
	}
	loader.IncludeTests = !*noTests

	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return fail(err)
	}

	if *graphOut != "" {
		doc := analysis.CommGraphDocOf(pkgs, loader.ModulePath)
		if err := writeOut(*graphOut, stdout, doc.WriteJSON); err != nil {
			return fail(err)
		}
	}
	if *cost {
		printCostBounds(stdout, pkgs, moduleDir, tree)
	}

	diags, err := analysis.RunAnalyzers(pkgs, analyzers)
	if err != nil {
		return fail(err)
	}
	findings, advice := 0, 0
	for _, d := range diags {
		if d.Analyzer == analysis.VariantCheckName {
			advice++
		} else {
			findings++
		}
	}
	if *sarifOut != "" {
		advisory := map[string]string{}
		if tree != nil {
			advisory[analysis.VariantCheckName] = "advise statically-profitable collective-variant switches"
		}
		doc := analysis.SARIFDoc(loader.Fset(), diags, analyzers, moduleDir, advisory)
		if err := writeOut(*sarifOut, stdout, doc.WriteSARIF); err != nil {
			return fail(err)
		}
	}
	if *asJSON {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			pos := loader.Fset().Position(d.Pos)
			jd := jsonDiagnostic{
				File: relPath(moduleDir, pos.Filename), Line: pos.Line, Col: pos.Column,
				Analyzer: d.Analyzer, Message: d.Message,
				Advice: d.Analyzer == analysis.VariantCheckName,
			}
			if d.End.IsValid() {
				end := loader.Fset().Position(d.End)
				jd.EndLine, jd.EndCol = end.Line, end.Column
			}
			out = append(out, jd)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return fail(err)
		}
	} else {
		for _, d := range diags {
			pos := loader.Fset().Position(d.Pos)
			fmt.Fprintf(stdout, "%s:%d:%d: %s (%s)\n", relPath(moduleDir, pos.Filename), pos.Line, pos.Column, d.Message, d.Analyzer)
		}
	}
	switch {
	case findings > 0:
		fmt.Fprintf(stderr, "hbspk-vet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	case advice > 0:
		fmt.Fprintf(stderr, "hbspk-vet: %d advisory finding(s) in %d package(s)\n", advice, len(pkgs))
		return 3
	}
	return 0
}

// relPath renders a diagnostic's file relative to the module root.
func relPath(moduleDir, file string) string {
	if rel, err := filepath.Rel(moduleDir, file); err == nil {
		return rel
	}
	return file
}

// runConformance executes the static↔runtime gate and returns the exit
// code: 0 on conformance, 1 on unexplained deliveries, 2 on bad input.
func runConformance(graphPath, eventsPath string, stdout, stderr io.Writer) int {
	gf, err := os.Open(graphPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer gf.Close()
	doc, err := obsv.ParseCommGraph(gf)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	ef, err := os.Open(eventsPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer ef.Close()
	deliveries, err := obsv.ReadDeliveries(ef)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	rep := obsv.CheckConformance(doc, deliveries)
	fmt.Fprint(stdout, rep.String())
	if !rep.OK() {
		fmt.Fprintf(stderr, "hbspk-vet: conformance gate FAILED: %d unexplained delivery class(es)\n", len(rep.Unexplained))
		return 1
	}
	return 0
}

// writeOut encodes a document with write to path ("-" for stdout),
// creating the parent directory if needed.
func writeOut(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printCostBounds renders the symbolic per-superstep cost bounds of
// every communicating function; with a tree, bounds whose sizes all
// fold are also evaluated.
func printCostBounds(w io.Writer, pkgs []*analysis.Package, moduleDir string, tree *model.Tree) {
	env := &analysis.CostEnv{Tree: tree}
	for _, pkg := range pkgs {
		pass := &analysis.Pass{
			Analyzer:  analysis.CostBound,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report:    func(analysis.Diagnostic) {},
		}
		costs := analysis.ExtractCosts(pass)
		if len(costs) == 0 {
			continue
		}
		fmt.Fprintf(w, "package %s\n", pkg.Path)
		for _, fc := range costs {
			pos := pkg.Fset.Position(fc.Pos)
			fmt.Fprintf(w, "  %s (%s:%d)\n", fc.Name, relPath(moduleDir, pos.Filename), pos.Line)
			for _, st := range fc.Steps {
				bound := st.Cost()
				loop := ""
				if st.InLoop {
					loop = " [per iteration]"
				}
				sync := st.Sync
				if sync == "" {
					sync = "(no closing barrier)"
				}
				fmt.Fprintf(w, "    step %d%s  %s\n      T <= %s\n", st.Index, loop, sync, bound)
				if tree != nil {
					if v, err := bound.Eval(env); err == nil {
						fmt.Fprintf(w, "      = %.4g on this tree\n", v)
					}
				}
			}
		}
	}
	if tree != nil {
		fmt.Fprintf(w, "\nvariant switchpoints on this tree (payloads 16 B .. 16 MB):\n")
		rows := plan.SwitchpointTable(tree, 16, 16<<20)
		if len(rows) == 0 {
			fmt.Fprintln(w, "  none: each family's cheapest variant never changes in range")
		}
		for _, r := range rows {
			fmt.Fprintf(w, "  %-14s %s -> %s at n >= %d bytes\n", r.Family, r.From, r.To, r.N)
		}
	}
}

func loadTree(name string) (*model.Tree, error) {
	switch name {
	case "ucf", "testbed":
		return model.UCFTestbed(), nil
	case "figure1":
		return model.Figure1Cluster(), nil
	case "grid":
		return model.WideAreaGrid(3, 4, 12, 25000, 250000), nil
	case "chain":
		return model.DeepChain(4), nil
	}
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("hbspk-vet: -tree %q is not a preset (ucf, figure1, grid, chain) and unreadable as a spec file: %w", name, err)
	}
	spec, err := model.ParseSpec(data)
	if err != nil {
		return nil, err
	}
	return spec.Tree()
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	all := analysis.All()
	if only == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("hbspk-vet: unknown analyzer %q (try -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// findModuleRoot walks up from the working directory to go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("hbspk-vet: no go.mod found above %s", dir)
		}
		dir = parent
	}
}
