package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The facts engine turns the suite from a set of single-package syntax/type
// checks into an interprocedural analysis. Packages are visited bottom-up
// over the module's import DAG (LoadModule already type-checks in dependency
// order, deterministically); in that walk each analyzer with an Export hook
// may attach facts to the objects its package declares — "this function
// ranges over a map without sorting", "this function returns a corpus.Ref
// owned by parameter 0's corpus", "this function writes a package-level
// aggregate". A downstream package's analyzer then consumes the facts of
// everything it imports, so a determinism violation buried two helper
// layers deep in another package still surfaces at the artifact sink that
// reaches it.
//
// Facts are namespaced by rule: a rule reads and writes only its own facts
// (keyed by (rule, types.Object)), which keeps the store free of cross-rule
// coupling. The export phase is strictly sequential — it IS the bottom-up
// walk — while the reporting phase that consumes facts is read-only and
// therefore safe to fan out across packages (see Run).

// Facts is the cross-package fact store of one Run.
type Facts struct {
	facts map[factKey]any
}

type factKey struct {
	rule string
	obj  types.Object
}

func newFacts() *Facts {
	return &Facts{facts: make(map[factKey]any)}
}

// ExportFact attaches this rule's fact to obj. Only legal during the export
// phase; facts are write-once — re-exporting for the same object keeps the
// first fact, so fixpoint loops stay monotone and deterministic.
func (p *Pass) ExportFact(obj types.Object, fact any) {
	key := factKey{rule: p.rule, obj: obj}
	if _, ok := p.Module.Facts.facts[key]; ok {
		return
	}
	p.Module.Facts.facts[key] = fact
}

// Fact returns this rule's fact for obj, or nil.
func (p *Pass) Fact(obj types.Object) any {
	if obj == nil {
		return nil
	}
	return p.Module.Facts.facts[factKey{rule: p.rule, obj: obj}]
}

// Callee resolves a call to the *types.Func it statically invokes, or nil
// for dynamic calls (function values, interface methods), conversions and
// builtins. Interface method calls resolving to nil is what makes injected
// dependencies — the substitutable clock, a corpus handed in by the caller
// — invisible to taint propagation, which is exactly right: the injection
// point is the sanctioned boundary.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Pkg.Info.Uses[id].(*types.Func)
	return fn
}

// ModuleFunc reports whether fn is declared in this module (facts can exist
// for it) rather than in the standard library.
func (p *Pass) ModuleFunc(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	return path == p.Module.Path || strings.HasPrefix(path, p.Module.Path+"/")
}

// declFunc pairs a function object with its declaration.
type declFunc struct {
	fn   *types.Func
	decl *ast.FuncDecl
}

// packageFuncs returns the current package's function declarations in a
// deterministic order (position order, which follows the sorted file list),
// the iteration domain for per-package fact fixpoints.
func (p *Pass) packageFuncs() []declFunc {
	var out []declFunc
	for _, file := range p.Pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name == nil || fd.Body == nil {
				continue
			}
			if fn, ok := p.Pkg.Info.Defs[fd.Name].(*types.Func); ok {
				out = append(out, declFunc{fn: fn, decl: fd})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].decl.Pos() < out[j].decl.Pos() })
	return out
}

// relPos renders a position module-root-relative, for witness chains in
// finding messages (machine-stable across checkouts).
func (p *Pass) relPos(pos token.Pos) string {
	position := p.Module.Fset.Position(pos)
	return relativePosition(p.Module.Root, position).String()
}

// paramIndex locates obj among fn's parameters: 0-based parameter index,
// recvIndex for the method receiver, or noParam when obj is not a
// parameter of fn.
const (
	recvIndex = -1
	noParam   = -2
)

func paramIndex(fn *types.Func, obj types.Object) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return noParam
	}
	if recv := sig.Recv(); recv != nil && recv == obj {
		return recvIndex
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if params.At(i) == obj {
			return i
		}
	}
	return noParam
}

// receiverObj returns the receiver variable object of fn's declaration, or
// nil for plain functions.
func receiverObj(fn *types.Func) types.Object {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv()
}
