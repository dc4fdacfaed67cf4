// Package lint is lstore's static-analysis suite: a small, dependency-free
// analysis framework (the repo builds with the standard library only, so
// golang.org/x/tools/go/analysis is off the table) plus the analyzers that
// machine-check the engine's standing invariants from ROADMAP.md:
//
//   - walerr: WAL append/flush errors must be propagated or poison the
//     transaction, never dropped (the PR 5 bug class).
//   - scanpath: every read path outside internal/core must go through the
//     one scan engine, never decode pages directly.
//   - lockguard: `// guarded by <mu>` field annotations are enforced by an
//     intraprocedural lock-state walk, and the mutex acquisition graph must
//     stay acyclic.
//   - nodeterminism: no wall-clock time, global randomness, or map-order
//     dependent output inside internal/core and internal/wal, so replay and
//     recovery stay deterministic.
//
// Packages are loaded through `go list -export` and type-checked from
// source against compiler export data, which works offline and needs no
// third-party loader. Run the whole suite with `go run ./cmd/lstore-lint ./...`.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one named check. Run inspects a single type-checked
// package through its Pass and reports diagnostics.
type Analyzer struct {
	Name string // short lowercase identifier, shown in diagnostics
	Doc  string // one-paragraph description
	Run  func(*Pass) error
}

// A Pass is one (analyzer, package) unit of work.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Suppressed reports whether a suppression marker comment (for example
// "//lockguard:ok written before publication") sits on the same line as pos.
// Markers are expected to carry a reason after the prefix; an empty reason
// still suppresses, but reads as an unexplained waiver in review.
func (p *Pass) Suppressed(pos token.Pos, marker string) bool {
	position := p.Pkg.Fset.Position(pos)
	for _, c := range p.Pkg.commentsOnLine(position.Filename, position.Line) {
		text := strings.TrimPrefix(c, "//")
		text = strings.TrimSpace(text)
		if text == marker || strings.HasPrefix(text, marker+" ") || strings.HasPrefix(text, marker+":") {
			return true
		}
	}
	return false
}

// Parents returns the parent map for file, built lazily: for every node, the
// syntactic parent it hangs off.
func (p *Package) Parents(file *ast.File) map[ast.Node]ast.Node {
	if p.parents == nil {
		p.parents = make(map[*ast.File]map[ast.Node]ast.Node)
	}
	if m, ok := p.parents[file]; ok {
		return m
	}
	m := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			m[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	p.parents[file] = m
	return m
}

// commentsOnLine returns the text of every comment whose position is on the
// given line of filename.
func (p *Package) commentsOnLine(filename string, line int) []string {
	if p.lineComments == nil {
		p.lineComments = make(map[string]map[int][]string)
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					pos := p.Fset.Position(c.Pos())
					byLine := p.lineComments[pos.Filename]
					if byLine == nil {
						byLine = make(map[int][]string)
						p.lineComments[pos.Filename] = byLine
					}
					// A block comment can span lines; key it by its first.
					byLine[pos.Line] = append(byLine[pos.Line], c.Text)
				}
			}
		}
	}
	return p.lineComments[filename][line]
}

// PathHasSuffixSeg reports whether path ends with the "/"-prefixed segment
// suffix seg, or contains it as an interior segment boundary. It is how
// analyzers scope themselves to logical packages (e.g. "/internal/core")
// without hard-coding the module path, which also lets fixture packages
// under testdata opt in by mirroring the directory layout.
func PathHasSuffixSeg(path, seg string) bool {
	return strings.HasSuffix(path, seg) || strings.Contains(path, seg+"/")
}

// FuncFor resolves a call expression to the invoked *types.Func, or nil for
// calls through function values, type conversions, and builtins.
func FuncFor(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	}
	return nil
}
