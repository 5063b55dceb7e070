package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// RefScope enforces the corpus handle ownership discipline. The corpus
// issues two dense uint32 handle types, each only meaningful inside the
// corpus that issued it (see internal/corpus): Ref, one per interned
// certificate, and IdentityRef, one per distinct certificate identity.
// Three violation shapes are flagged for both:
//
//   - cross-corpus flow: a handle produced by one corpus (c1.Intern,
//     c1.LookupIdentity, or a module function the facts engine proved
//     returns handles owned by a corpus parameter) consumed through a
//     different corpus value (c2.Cert(r), c2.IdentityEntry(h), or a module
//     function proved to consume a handle against a corpus parameter).
//     Provenance is tracked within each function and carried across
//     package boundaries by exported facts.
//   - serialized handles: a struct field of a handle type (or a slice of
//     one) carrying a json/gob tag. Handles are process-local, assigned in
//     interning order; persisting one stores a number that means nothing
//     to any other process — persist a fingerprint, an identity or a
//     snapshot-local table index instead (as notary snapshot v2 does).
//   - ambiguous containers: a map keyed by a handle inside a struct that
//     holds more than one *corpus.Corpus — the key cannot name which
//     corpus it belongs to, so nothing stops handles from different tables
//     colliding.
//
// Package corpus itself is exempt: it is the issuing table, and its
// internals are the primitive everything else is being held to.
var RefScope = &Analyzer{
	Name:   "refscope",
	Doc:    "flag corpus handles (Ref, IdentityRef) crossing corpus boundaries, serialized handles, and handle-keyed maps in multi-corpus structs",
	Run:    runRefScope,
	Export: exportRefScope,
}

// refProducers are the *corpus.Corpus methods whose handle results are
// owned by the receiver.
var refProducers = map[string]bool{
	"Intern":         true,
	"InternCert":     true,
	"InternChain":    true,
	"ParsePEM":       true,
	"IdentityRefOf":  true,
	"LookupIdentity": true,
}

// refConsumers are the *corpus.Corpus methods that interpret a handle
// argument against the receiver.
var refConsumers = map[string]bool{
	"Entry":         true,
	"Cert":          true,
	"Identity":      true,
	"SHA1":          true,
	"DER":           true,
	"Certs":         true,
	"IdentityRefOf": true,
	"IdentityEntry": true,
}

// handleTypes are the corpus handle types the rule polices, with what to
// persist instead of each.
var handleTypes = []struct{ name, persist string }{
	{"Ref", "a fingerprint or a snapshot-local table index"},
	{"IdentityRef", "the certid.Identity or a snapshot-local table index"},
}

// refScopeFact is the per-function provenance fact.
type refScopeFact struct {
	// producer is the corpus parameter index (recvIndex for the receiver)
	// owning every Ref the function returns, or noParam.
	producer int
	// consumes lists (corpus parameter, Ref parameter) pairs the function
	// interprets together.
	consumes [][2]int
}

// corpusBase reports whether the named type pkg has base name "corpus" —
// matching both the real module package and fixture modules, like the
// obskey receiver match.
func corpusBase(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	return pkg.Path() == "corpus" || strings.HasSuffix(pkg.Path(), "/corpus")
}

func namedCorpusType(t types.Type, name string) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && corpusBase(obj.Pkg())
}

// isCorpusPtr reports whether t is *corpus.Corpus.
func isCorpusPtr(t types.Type) bool {
	ptr, ok := types.Unalias(t).(*types.Pointer)
	return ok && namedCorpusType(ptr.Elem(), "Corpus")
}

// handleType returns the index in handleTypes of t's handle type — t is
// the handle or a slice of it — or -1.
func handleType(t types.Type) int {
	if t == nil {
		return -1
	}
	if sl, ok := types.Unalias(t).Underlying().(*types.Slice); ok {
		t = sl.Elem()
	}
	for i, h := range handleTypes {
		if namedCorpusType(t, h.name) {
			return i
		}
	}
	return -1
}

// isRefType reports whether t is a corpus handle or a slice of one.
func isRefType(t types.Type) bool { return handleType(t) >= 0 }

// corpusKey names one corpus-valued expression within a function: the root
// object plus the rendered selector path, so n.c and m.c stay distinct
// even when both render as ".c" chains off different roots.
type corpusKey struct {
	obj  types.Object
	path string
}

func (k corpusKey) known() bool { return k.obj != nil }

// corpusKeyOf canonicalizes a corpus-typed expression: an identifier or a
// selector chain of identifiers and fields. Calls, map loads and anything
// else are unknown — unknown keys never report.
func corpusKeyOf(p *Pass, e ast.Expr) corpusKey {
	e = ast.Unparen(e)
	if !isCorpusPtr(p.TypeOf(e)) {
		return corpusKey{}
	}
	root := e
	for {
		if sel, ok := ast.Unparen(root).(*ast.SelectorExpr); ok {
			root = sel.X
			continue
		}
		break
	}
	id, ok := ast.Unparen(root).(*ast.Ident)
	if !ok {
		return corpusKey{}
	}
	obj := p.Pkg.Info.Uses[id]
	if obj == nil {
		obj = p.Pkg.Info.Defs[id]
	}
	if obj == nil {
		return corpusKey{}
	}
	return corpusKey{obj: obj, path: types.ExprString(e)}
}

// refFlow walks one function, tracking which corpus each local Ref value
// came from, and calls report for every Ref consumed through a different
// corpus than the one that produced it. It returns the facts the function
// exports for its own callers.
func refFlow(p *Pass, df declFunc, report func(pos ast.Expr, prod, cons corpusKey)) refScopeFact {
	fact := refScopeFact{producer: noParam}
	prov := make(map[types.Object]corpusKey)
	consumed := make(map[[2]int]bool)

	// exprProv resolves the provenance of a Ref-valued expression.
	var exprProv func(e ast.Expr) corpusKey
	exprProv = func(e ast.Expr) corpusKey {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := p.Pkg.Info.Uses[x]; obj != nil {
				return prov[obj]
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				if refProducers[sel.Sel.Name] && isCorpusPtr(p.TypeOf(sel.X)) {
					return corpusKeyOf(p, sel.X)
				}
			}
			if callee := p.Callee(x); callee != nil && p.ModuleFunc(callee) {
				if f, ok := p.Fact(callee).(*refScopeFact); ok && f.producer != noParam {
					if arg := callArg(x, f.producer); arg != nil {
						return corpusKeyOf(p, arg)
					}
				}
			}
		}
		return corpusKey{}
	}

	// consumption checks one (corpus expression, Ref argument) pairing.
	consume := func(cExpr, rExpr ast.Expr) {
		cKey := corpusKeyOf(p, cExpr)
		rKey := exprProv(rExpr)
		if cKey.known() && rKey.known() && cKey != rKey && report != nil {
			report(rExpr, rKey, cKey)
		}
		// Record the fact shape: both sides are parameters of this function.
		ci := objParam(p, df.fn, cExpr)
		ri := objParam(p, df.fn, rExpr)
		if ci != noParam && ri != noParam {
			pair := [2]int{ci, ri}
			if !consumed[pair] {
				consumed[pair] = true
				fact.consumes = append(fact.consumes, pair)
			}
		}
	}

	ast.Inspect(df.decl, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			if len(node.Lhs) > 1 && len(node.Rhs) == 1 {
				// r, err := c.Intern(der): the call's provenance attaches to
				// every Ref-typed name on the left.
				key := exprProv(node.Rhs[0])
				if key.known() {
					for _, lhs := range node.Lhs {
						bindProv(p, prov, lhs, key)
					}
				}
				return true
			}
			for i, lhs := range node.Lhs {
				if i < len(node.Rhs) {
					if key := exprProv(node.Rhs[i]); key.known() {
						bindProv(p, prov, lhs, key)
					}
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(node.Fun).(*ast.SelectorExpr); ok &&
				refConsumers[sel.Sel.Name] && isCorpusPtr(p.TypeOf(sel.X)) {
				for _, arg := range node.Args {
					if isRefType(p.TypeOf(arg)) {
						consume(sel.X, arg)
					}
				}
				return true
			}
			if callee := p.Callee(node); callee != nil && p.ModuleFunc(callee) {
				if f, ok := p.Fact(callee).(*refScopeFact); ok {
					for _, pair := range f.consumes {
						cArg, rArg := callArg(node, pair[0]), callArg(node, pair[1])
						if cArg != nil && rArg != nil {
							consume(cArg, rArg)
						}
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range node.Results {
				if !isRefType(p.TypeOf(res)) {
					continue
				}
				key := exprProv(res)
				idx := noParam
				if key.known() {
					idx = objParam(p, df.fn, res)
					if idx == noParam && key.obj != nil && key.path == key.obj.Name() {
						idx = paramIndex(df.fn, key.obj)
					}
				}
				switch {
				case idx == noParam:
					fact.producer = noParam
					return false // a non-param-owned return disqualifies the fact
				case fact.producer == noParam || fact.producer == idx:
					fact.producer = idx
				default:
					fact.producer = noParam // two different owners: ambiguous
					return false
				}
			}
		}
		return true
	})
	return fact
}

// bindProv records provenance for a Ref-typed assignment target.
func bindProv(p *Pass, prov map[types.Object]corpusKey, lhs ast.Expr, key corpusKey) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := p.Pkg.Info.Defs[id]
	if obj == nil {
		obj = p.Pkg.Info.Uses[id]
	}
	if obj != nil && isRefType(obj.Type()) {
		prov[obj] = key
	}
}

// objParam resolves e to a parameter index of fn when e is exactly a
// parameter (or receiver) identifier; noParam otherwise.
func objParam(p *Pass, fn *types.Func, e ast.Expr) int {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return noParam
	}
	obj := p.Pkg.Info.Uses[id]
	if obj == nil {
		return noParam
	}
	return paramIndex(fn, obj)
}

// callArg returns the expression bound to parameter idx at a call:
// recvIndex maps to the method receiver expression.
func callArg(call *ast.CallExpr, idx int) ast.Expr {
	if idx == recvIndex {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return sel.X
		}
		return nil
	}
	if idx >= 0 && idx < len(call.Args) {
		return call.Args[idx]
	}
	return nil
}

// exportRefScope computes producer/consumer facts for the package's
// functions, iterating to a fixpoint so provenance composes through
// same-package helpers regardless of declaration order.
func exportRefScope(p *Pass) {
	if p.Pkg.Base() == "corpus" {
		return
	}
	funcs := p.packageFuncs()
	for changed := true; changed; {
		changed = false
		for _, df := range funcs {
			if p.Fact(df.fn) != nil {
				continue
			}
			fact := refFlow(p, df, nil)
			if fact.producer != noParam || len(fact.consumes) > 0 {
				p.ExportFact(df.fn, &fact)
				changed = true
			}
		}
	}
}

func runRefScope(p *Pass) {
	if p.Pkg.Base() == "corpus" {
		return
	}
	for _, df := range p.packageFuncs() {
		refFlow(p, df, func(at ast.Expr, prod, cons corpusKey) {
			name := handleTypes[0].name
			if h := handleType(p.TypeOf(at)); h >= 0 {
				name = handleTypes[h].name
			}
			p.Reportf(at.Pos(),
				"%s produced by corpus %s is consumed through corpus %s; %ss are dense handles meaningful only in their owning corpus",
				name, prod.path, cons.path, name)
		})
	}
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			checkRefStruct(p, ts.Name.Name, st)
			return true
		})
	}
}

// checkRefStruct applies the two struct-shape checks: serialized handle
// fields, and handle-keyed maps in structs holding more than one corpus.
func checkRefStruct(p *Pass, name string, st *ast.StructType) {
	corpora := 0
	type mapField struct {
		pos    ast.Expr
		handle string
	}
	var refKeyMaps []mapField
	for _, field := range st.Fields.List {
		t := p.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if isCorpusPtr(t) {
			corpora++
		}
		if m, ok := types.Unalias(t).Underlying().(*types.Map); ok {
			if h := handleType(m.Key()); h >= 0 {
				refKeyMaps = append(refKeyMaps, mapField{pos: field.Type, handle: handleTypes[h].name})
			}
		}
		if h := handleType(t); h >= 0 && field.Tag != nil &&
			(strings.Contains(field.Tag.Value, "json:") || strings.Contains(field.Tag.Value, "gob:")) {
			p.Reportf(field.Pos(),
				"corpus.%s field %s.%s is serialized; %ss are process-local interning handles — persist %s instead",
				handleTypes[h].name, name, fieldName(field), handleTypes[h].name, handleTypes[h].persist)
		}
	}
	if corpora > 1 {
		for _, mf := range refKeyMaps {
			p.Reportf(mf.pos.Pos(),
				"map keyed by corpus.%s in struct %s, which holds %d corpora; a bare %s cannot name its owning corpus — key by (corpus ID, %s) or split the struct",
				mf.handle, name, corpora, mf.handle, mf.handle)
		}
	}
}

func fieldName(f *ast.Field) string {
	if len(f.Names) > 0 {
		return f.Names[0].Name
	}
	return types.ExprString(f.Type)
}
