// Package lint is the repo's std-lib-only static-analysis framework: a
// package loader (LoadModule: `go list` names the packages, go/parser +
// go/types check each from source; no external dependencies, matching the
// module's zero-dep stance), a small analyzer interface, and
// `//lint:allow <check> <justification>` suppression directives.
//
// The analyzers encode the invariants the runtime tests sample but cannot
// prove: the bit-identical contract (no wall-clock reads, no unseeded
// randomness, no iteration-order-dependent map ranges, all fan-out through
// internal/parallel) and the zero-alloc disabled-observer pledge (every obs
// emission site nil-guards the recorder). `cmd/repolint` runs the suite
// over ./... and exits nonzero on any unsuppressed finding, so every future
// package inherits the determinism contract at compile time instead of
// hoping a seed exercises the violation.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Analyzer is one named check over a loaded package. Name is the registry
// token that `//lint:allow` directives and `repolint -list` reference; Doc
// is the one-line contract the check enforces.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass is one analyzer's view of one package: the type-checked unit plus
// the diagnostic sink.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records one finding at pos. Suppression directives are applied
// after the analyzer runs, so analyzers report unconditionally.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Check:   p.Analyzer.Name,
		Pos:     p.Pkg.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding. Suppressed findings stay in the result — the
// repolint summary counts them — but do not fail the run.
type Diagnostic struct {
	Check      string
	Pos        token.Position
	Message    string
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// DirectiveCheck is the pseudo-check name under which directive-parsing
// errors (unknown check name, missing justification, directive that
// suppresses nothing) are reported. It is not a registered analyzer and
// cannot itself be suppressed.
const DirectiveCheck = "directive"

// Result is one suite run: every diagnostic (suppressed included) in
// position order, plus the counts the repolint summary line prints.
type Result struct {
	Diags      []Diagnostic
	Findings   int // unsuppressed diagnostics, directive errors included
	Suppressed int
	Packages   int
}

// Run executes the analyzers over the packages, applies the packages'
// `//lint:allow` directives, and validates the directives themselves
// (unknown check names and missing justifications are findings; so is a
// directive that suppresses nothing from the analyzers that ran).
func Run(pkgs []*Package, analyzers []*Analyzer) *Result {
	res := &Result{Packages: len(pkgs)}
	for _, pkg := range pkgs {
		var diags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags}
			a.Run(pass)
		}
		diags = append(diags, applyDirectives(pkg, diags, analyzers)...)
		res.Diags = append(res.Diags, diags...)
	}
	sort.SliceStable(res.Diags, func(i, j int) bool {
		a, b := res.Diags[i], res.Diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	for _, d := range res.Diags {
		if d.Suppressed {
			res.Suppressed++
		} else {
			res.Findings++
		}
	}
	return res
}
