// Package lint is the repository's static-analysis framework: a typed-AST
// multi-analyzer suite over the whole module tree, built only on the
// standard library (go/ast, go/types, go/importer). cmd/tbvet is the
// driver; `make vet` and the CI lint job run it over ./... and fail on
// any finding.
//
// The suite enforces statically the invariants the test suite pins
// dynamically — determinism of Reports, allocation discipline on
// //tb:hotpath functions, cancellation hygiene in the streaming pipeline,
// and package documentation — so new code cannot quietly regress them
// between test runs. See
// docs/STATIC_ANALYSIS.md for the analyzer catalogue and the
// //tbvet:ignore suppression directive.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position. File is
// relative to the loaded module root, so output is stable across
// machines and checkouts.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// String renders the finding in the familiar file:line:col vet shape,
// with the analyzer name trailing in brackets.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.File, d.Line, d.Col, d.Message, d.Analyzer)
}

// Analyzer is one static check run over every package it applies to.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -analyzers selection,
	// and //tbvet:ignore directives.
	Name string
	// Doc is a one-line description for the driver's -list output.
	Doc string
	// Packages restricts the analyzer to packages whose module-relative
	// path has one of these prefixes; empty means every package.
	Packages []string
	// Exempt lists packages deliberately carved out of the analyzer's
	// scope, each with a recorded reason. An exemption is documentation
	// made executable: the package appears in Packages (it is in scope,
	// not silently unscanned) but is skipped, and the driver's -list
	// output names the exemption and why.
	Exempt []Exemption
	// Run reports the analyzer's findings for one package.
	Run func(*Pass)
}

// Exemption is one deliberately excluded package subtree with the reason
// it is allowed to break the analyzer's invariant.
type Exemption struct {
	// Path is the module-relative package path prefix exempted.
	Path string
	// Reason records why the exemption is sound.
	Reason string
}

// matchesPrefix reports whether rel equals prefix or sits under it.
func matchesPrefix(rel, prefix string) bool {
	return rel == prefix || strings.HasPrefix(rel, prefix+"/")
}

// Exempted returns the exemption covering pkg, if any.
func (a *Analyzer) Exempted(pkg *Package) (Exemption, bool) {
	for _, e := range a.Exempt {
		if matchesPrefix(pkg.Rel, e.Path) {
			return e, true
		}
	}
	return Exemption{}, false
}

// applies reports whether the analyzer covers pkg: in scope via Packages
// (or unrestricted) and not explicitly exempted.
func (a *Analyzer) applies(pkg *Package) bool {
	if _, ok := a.Exempted(pkg); ok {
		return false
	}
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if matchesPrefix(pkg.Rel, p) {
			return true
		}
	}
	return false
}

// Pass carries one (analyzer, package) run and collects its findings.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Prog.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     p.Prog.relFile(position.Filename),
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Determinism, Hotpath, CtxHygiene, PkgDoc}
}

// ByName resolves a comma-separated analyzer selection against All.
func ByName(names string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("lint: empty analyzer selection %q", names)
	}
	return out, nil
}

// Run executes the analyzers over every package of prog, applies the
// //tbvet:ignore suppression directives, and returns the surviving
// diagnostics sorted by (file, line, column, analyzer, message) — a
// deterministic order regardless of package load or map iteration order.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		for _, a := range analyzers {
			if !a.applies(pkg) {
				continue
			}
			a.Run(&Pass{Analyzer: a, Prog: prog, Pkg: pkg, diags: &diags})
		}
	}
	diags = applyIgnores(prog, analyzers, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}
