// Package lint is a repo-aware static-analysis suite for the tangledmass
// module. The paper's results hinge on invariants the type system cannot
// express — root certificates must be compared by identity rather than by
// pointer or raw DER bytes, the synthetic datasets must stay deterministic,
// long-running collectors must not block forever on the network — so this
// package enforces them mechanically over every package in the module.
//
// The suite is zero-dependency: packages are discovered and parsed with
// go/parser, type-checked with go/types, and stdlib imports are resolved by
// the stdlib source importer. cmd/tangledlint is the command-line driver;
// verify.sh runs it as a build gate.
//
// A finding can be suppressed with an inline directive on the same or the
// preceding line:
//
//	//lint:ignore rule[,rule...] reason
//
// or for a whole file (anywhere in the file, conventionally at the top):
//
//	//lint:file-ignore rule[,rule...] reason
//
// The reason is mandatory and the rule names must be registered; malformed
// directives are themselves reported under the "lintdirective" rule.
package lint

import (
	"context"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"tangledmass/internal/parallel"
)

// Finding is one analyzer report, rendered as "file:line: [rule] message".
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the finding in the canonical driver output format.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Rule, f.Msg)
}

// Package is one type-checked package of the loaded module.
type Package struct {
	// Path is the package import path ("tangledmass/internal/rootstore").
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Files are the parsed non-test source files.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's expression and identifier facts.
	Info *types.Info
}

// Base returns the last path element of the package import path, which is
// how the repo-aware analyzers recognize the packages they apply to.
func (p *Package) Base() string {
	if i := strings.LastIndexByte(p.Path, '/'); i >= 0 {
		return p.Path[i+1:]
	}
	return p.Path
}

// Pass carries one analyzer's run over one package.
type Pass struct {
	Module *Module
	Pkg    *Package

	rule     string
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:  p.Module.Fset.Position(pos),
		Rule: p.rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Pkg.Info.TypeOf(e)
}

// ObjectOf returns the object an identifier denotes, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	return p.Pkg.Info.ObjectOf(id)
}

// CalleeName resolves a call expression to the full name of the called
// function or method — "bytes.Equal", "os.Exit",
// "(*strings.Builder).WriteString" — or "" when the callee is not a named
// function (a conversion, a function-typed variable, a builtin).
func (p *Pass) CalleeName(call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	if fn, ok := p.Pkg.Info.Uses[id].(*types.Func); ok {
		return fn.FullName()
	}
	return ""
}

// Analyzer is one named rule over a package.
type Analyzer struct {
	// Name is the rule name used in output and in ignore directives.
	Name string
	// Doc is a one-line description of the rule.
	Doc string
	// Run inspects one package and reports findings through the pass. Run
	// may read facts but must not export them: it can execute concurrently
	// with other packages' Run passes.
	Run func(*Pass)
	// Export, when non-nil, runs before any Run pass, package by package in
	// dependency order, and attaches this rule's facts to the package's
	// objects (Pass.ExportFact). By the time a package exports, the facts of
	// everything it imports are final.
	Export func(*Pass)
}

// DirectiveRule is the pseudo-rule malformed //lint: directives are reported
// under. It is always checked and cannot be suppressed.
const DirectiveRule = "lintdirective"

// UnusedIgnoreRule is the pseudo-rule stale suppressions are reported
// under: a //lint:ignore or //lint:file-ignore directive that suppressed
// zero findings of the rules it names. Like DirectiveRule it cannot itself
// be suppressed — a stale directive must be deleted, not ignored harder. A
// directive is only judged when every rule it names was enabled in the
// run; partial runs say nothing about what a directive would suppress.
const UnusedIgnoreRule = "unusedignore"

// Analyzers returns the full registered suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		CertCompare,
		CertParse,
		DetRand,
		LockSafe,
		ErrWrap,
		NoExit,
		CtxHTTP,
		SleepRetry,
		ObsKey,
		ParallelMerge,
		DetSink,
		RefScope,
		MergeOrder,
	}
}

// KnownRules returns every valid rule name for directive validation,
// independent of which analyzers a particular run enables.
func KnownRules() map[string]bool {
	rules := map[string]bool{DirectiveRule: true, UnusedIgnoreRule: true}
	for _, a := range Analyzers() {
		rules[a.Name] = true
	}
	return rules
}

// RunOption configures one Run.
type RunOption func(*runConfig)

type runConfig struct {
	workers int
}

// WithWorkers bounds the reporting-phase fan-out. Values < 1 (and the
// default) mean GOMAXPROCS. The output is byte-identical at any worker
// count — the tool obeys the determinism invariant it checks.
func WithWorkers(n int) RunOption {
	return func(c *runConfig) { c.workers = n }
}

// Run applies the analyzers to every package of the module, filters findings
// through //lint:ignore directives, and returns the surviving findings plus
// any malformed-directive and stale-directive findings, sorted by position
// then rule. Positions are module-root-relative, so output is stable across
// machines and working directories.
//
// Run has two phases. The export phase walks packages sequentially in
// dependency order, letting each analyzer's Export hook attach facts to the
// package's objects; this IS the bottom-up DAG walk, so it cannot fan out.
// The reporting phase is read-only over the module and the fact store and
// fans out across packages through internal/parallel; per-package findings
// are merged in package order, so the result is a pure function of the
// module.
func Run(m *Module, analyzers []*Analyzer, opts ...RunOption) []Finding {
	cfg := runConfig{}
	for _, opt := range opts {
		opt(&cfg)
	}

	m.Facts = newFacts()
	var discard []Finding
	for _, pkg := range m.Packages {
		for _, a := range analyzers {
			if a.Export == nil {
				continue
			}
			a.Export(&Pass{Module: m, Pkg: pkg, rule: a.Name, findings: &discard})
		}
	}

	perPkg, _ := parallel.Map(context.Background(), len(m.Packages),
		func(_ context.Context, i int) ([]Finding, error) {
			var out []Finding
			for _, a := range analyzers {
				a.Run(&Pass{Module: m, Pkg: m.Packages[i], rule: a.Name, findings: &out})
			}
			return out, nil
		}, parallel.WithWorkers(cfg.workers))

	idx, bad := buildIgnoreIndex(m)
	findings := bad
	for _, pkgFindings := range perPkg {
		for _, f := range pkgFindings {
			if idx.suppressed(f) {
				continue
			}
			findings = append(findings, f)
		}
	}

	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	findings = append(findings, idx.unused(ran)...)

	for i := range findings {
		findings[i].Pos = relativePosition(m.Root, findings[i].Pos)
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return findings
}

// relativePosition rewrites a position's filename relative to the module
// root (slash-separated), so findings are stable across machines.
// Positions already relative, or outside the root, are returned unchanged.
func relativePosition(root string, pos token.Position) token.Position {
	if pos.Filename == "" || !filepath.IsAbs(pos.Filename) {
		return pos
	}
	rel, err := filepath.Rel(root, pos.Filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return pos
	}
	pos.Filename = filepath.ToSlash(rel)
	return pos
}

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t is or implements error.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Identical(t, errorType) || types.Implements(t, errorType)
}

// namedIn reports whether t (after unwrapping aliases) is the named type
// pkgPath.name.
func namedIn(t types.Type, pkgPath, name string) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// isCertPtr reports whether t is *crypto/x509.Certificate.
func isCertPtr(t types.Type) bool {
	ptr, ok := types.Unalias(t).(*types.Pointer)
	return ok && namedIn(ptr.Elem(), "crypto/x509", "Certificate")
}

// isCert reports whether t is crypto/x509.Certificate or a pointer to it.
func isCert(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return namedIn(t, "crypto/x509", "Certificate")
}
