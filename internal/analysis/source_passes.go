package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The determinism source passes protect the invariants the optimizer's
// reproducibility rests on: identical inputs must yield identical search
// results, traces and exhibits on every run and on every GOMAXPROCS. The
// three classic leaks are order-sensitive map iteration, wall-clock
// reads, and unseeded entropy.

// buildParents maps every node in the file to its parent.
func buildParents(f *ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// selOnPackage reports whether expr is pkg.Name for an import of one of
// the given paths, returning the selected name.
func selOnPackage(info *types.Info, expr ast.Expr, paths ...string) (string, bool) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	got := pn.Imported().Path()
	for _, p := range paths {
		if got == p {
			return sel.Sel.Name, true
		}
	}
	return "", false
}

// rootIdent unwraps selectors, indexes, parens and stars to the base
// identifier, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// objOf resolves an identifier to its object (use or definition).
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// declaredWithin reports whether obj is declared inside n.
func declaredWithin(obj types.Object, n ast.Node) bool {
	return obj != nil && obj.Pos() >= n.Pos() && obj.Pos() < n.End()
}

// mentionsAny reports whether any identifier under n resolves to one of
// the objects.
func mentionsAny(info *types.Info, n ast.Node, objs map[types.Object]bool) bool {
	if n == nil || len(objs) == 0 {
		return false
	}
	found := false
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if o := objOf(info, id); o != nil && objs[o] {
				found = true
			}
		}
		return !found
	})
	return found
}

// enclosingFuncBody walks up the parent chain to the surrounding function
// literal or declaration body.
func enclosingFuncBody(parents map[ast.Node]ast.Node, n ast.Node) *ast.BlockStmt {
	for p := parents[n]; p != nil; p = parents[p] {
		switch f := p.(type) {
		case *ast.FuncDecl:
			return f.Body
		case *ast.FuncLit:
			return f.Body
		}
	}
	return nil
}

// checkMapIteration flags `for ... := range m` over a map whose body
// feeds an order-sensitive sink. Collect-then-sort (append to a slice
// that is later sorted), pure map-to-map copies, commutative integer
// accumulation and element-derived index stores are all recognized as
// order-insensitive and left alone.
func checkMapIteration(p *SourcePackage) []Finding {
	var out []Finding
	for _, f := range p.Files {
		parents := buildParents(f)
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := p.Info.Types[rs.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			out = append(out, auditMapRange(p, parents, rs)...)
			return true
		})
	}
	return out
}

func auditMapRange(p *SourcePackage, parents map[ast.Node]ast.Node, rs *ast.RangeStmt) []Finding {
	info := p.Info
	rangeVars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if o := objOf(info, id); o != nil {
				rangeVars[o] = true
			}
		}
	}
	// Counters: variables from outside the loop that the body steps, so an
	// indexed store through them records iteration order.
	counters := make(map[types.Object]bool)
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		var target ast.Expr
		switch s := n.(type) {
		case *ast.IncDecStmt:
			target = s.X
		case *ast.AssignStmt:
			if s.Tok != token.ASSIGN && s.Tok != token.DEFINE && len(s.Lhs) == 1 {
				target = s.Lhs[0]
			}
		}
		if id, ok := target.(*ast.Ident); ok {
			if o := objOf(info, id); o != nil && !declaredWithin(o, rs) {
				counters[o] = true
			}
		}
		return true
	})

	outer := func(id *ast.Ident) types.Object {
		o := objOf(info, id)
		if o == nil || declaredWithin(o, rs) {
			return nil
		}
		if _, ok := o.(*types.Var); !ok {
			return nil
		}
		return o
	}

	warn := func(n ast.Node, msg, fix string) Finding {
		return p.finding(Warning, "map-iteration", n.Pos(), msg, fix)
	}

	var out []Finding
	var appends []appendSink
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			out = append(out, auditMapRangeAssign(p, rs, s, rangeVars, counters, outer, warn, &appends)...)
		case *ast.SendStmt:
			if id := rootIdent(s.Chan); id != nil && outer(id) != nil {
				out = append(out, warn(s, fmt.Sprintf("send on %s inside map iteration delivers values in nondeterministic order", id.Name),
					"collect into a slice, sort, then send"))
			}
		case *ast.CallExpr:
			if sel, ok := s.Fun.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "Write") {
				if id := rootIdent(sel.X); id != nil && outer(id) != nil {
					out = append(out, warn(s, fmt.Sprintf("%s.%s inside map iteration emits output in nondeterministic order", id.Name, sel.Sel.Name),
						"collect the keys, sort them, then emit"))
				}
			}
		case *ast.ReturnStmt:
			for _, r := range s.Results {
				if mentionsAny(info, r, rangeVars) {
					out = append(out, warn(s, "return of a range variable picks an arbitrary map entry",
						"collect matching entries and pick deterministically (e.g. the smallest key)"))
					break
				}
			}
		}
		return true
	})

	// Collect-then-sort: an append target that some call with "sort" in
	// its name later receives is order-insensitive.
	if len(appends) > 0 {
		body := enclosingFuncBody(parents, rs)
		for _, a := range appends {
			if body != nil && sortedLater(info, body, a.obj) {
				continue
			}
			out = append(out, warn(a.node,
				fmt.Sprintf("append to %s inside map iteration records nondeterministic order", a.obj.Name()),
				"sort the slice after the loop, or iterate sorted keys"))
		}
	}
	return out
}

// appendSink is one `s = append(s, ...)` on an outer slice inside a
// map-range body, pending the collect-then-sort exemption check.
type appendSink struct {
	obj  types.Object
	node ast.Node
}

// auditMapRangeAssign classifies one assignment inside a map-range body.
func auditMapRangeAssign(p *SourcePackage, rs *ast.RangeStmt, s *ast.AssignStmt,
	rangeVars, counters map[types.Object]bool,
	outer func(*ast.Ident) types.Object,
	warn func(ast.Node, string, string) Finding,
	appends *[]appendSink) []Finding {

	info := p.Info
	if s.Tok == token.DEFINE {
		return nil // new locals are loop-private
	}
	var out []Finding
	for i, lhs := range s.Lhs {
		var rhs ast.Expr
		if len(s.Rhs) == len(s.Lhs) {
			rhs = s.Rhs[i]
		} else if len(s.Rhs) == 1 {
			rhs = s.Rhs[0]
		}
		switch l := lhs.(type) {
		case *ast.Ident:
			obj := outer(l)
			if obj == nil {
				continue
			}
			if s.Tok == token.ASSIGN {
				if call, ok := rhs.(*ast.CallExpr); ok {
					if fn, ok := call.Fun.(*ast.Ident); ok && fn.Name == "append" && len(call.Args) > 0 {
						if base := rootIdent(call.Args[0]); base != nil && objOf(info, base) == obj {
							*appends = append(*appends, struct {
								obj  types.Object
								node ast.Node
							}{obj, s})
							continue
						}
					}
				}
				// Last-writer-wins: only nondeterministic if the value
				// depends on which entry the iteration visits.
				locals := make(map[types.Object]bool)
				for o := range rangeVars {
					locals[o] = true
				}
				ast.Inspect(rs.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if o := info.Defs[id]; o != nil && declaredWithin(o, rs) {
							locals[o] = true
						}
					}
					return true
				})
				if mentionsAny(info, rhs, locals) {
					out = append(out, warn(s,
						fmt.Sprintf("assignment to %s inside map iteration keeps an arbitrary entry (last writer wins)", l.Name),
						"reduce commutatively, or iterate sorted keys"))
				}
				continue
			}
			// Op-assign: commutative integer/boolean accumulation is safe;
			// float and string accumulation is order-dependent.
			if v, ok := obj.(*types.Var); ok {
				if b, ok := v.Type().Underlying().(*types.Basic); ok {
					if b.Info()&(types.IsFloat|types.IsComplex|types.IsString) != 0 {
						out = append(out, warn(s,
							fmt.Sprintf("%s accumulation of %s inside map iteration is order-dependent", b.Name(), l.Name),
							"accumulate over sorted keys"))
					}
				}
			}
		case *ast.IndexExpr:
			base := rootIdent(l.X)
			if base == nil {
				continue
			}
			obj := outer(base)
			if obj == nil {
				continue
			}
			if v, ok := obj.(*types.Var); ok {
				if _, isMap := v.Type().Underlying().(*types.Map); isMap {
					continue // map-to-map copies commute
				}
			}
			if mentionsAny(info, l.Index, counters) && !mentionsAny(info, l.Index, rangeVars) {
				out = append(out, warn(s,
					fmt.Sprintf("store into %s at a counter-derived index records iteration order", base.Name),
					"derive the index from the element, or iterate sorted keys"))
			}
		}
	}
	return out
}

// sortedLater reports whether body contains a call whose name mentions
// sorting and whose arguments (or receiver) mention obj.
func sortedLater(info *types.Info, body *ast.BlockStmt, obj types.Object) bool {
	target := map[types.Object]bool{obj: true}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		name := ""
		switch f := call.Fun.(type) {
		case *ast.Ident:
			name = f.Name
		case *ast.SelectorExpr:
			name = f.Sel.Name
			if x, ok := f.X.(*ast.Ident); ok {
				name = x.Name + "." + name // sort.Strings, slices.Sort, ids.Sort
			}
		}
		if strings.Contains(strings.ToLower(name), "sort") && mentionsAny(info, call, target) {
			found = true
		}
		return !found
	})
	return found
}

// checkWallClock flags time.Now reads except the elapsed-time idiom:
// passed straight to time.Since, or stored in a variable that is only
// ever handed to calls or used with .Sub.
func checkWallClock(p *SourcePackage) []Finding {
	var out []Finding
	for _, f := range p.Files {
		parents := buildParents(f)
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := selOnPackage(p.Info, call.Fun, "time"); !ok || name != "Now" {
				return true
			}
			if wallClockAllowed(p.Info, parents, call) {
				return true
			}
			out = append(out, p.finding(Warning, "wall-clock", call.Pos(),
				"time.Now read outside the elapsed-time idiom makes output depend on when it runs",
				"restrict wall-clock use to `start := time.Now()` ... `time.Since(start)`, or inject the timestamp"))
			return true
		})
	}
	return out
}

func wallClockAllowed(info *types.Info, parents map[ast.Node]ast.Node, call *ast.CallExpr) bool {
	switch parent := parents[call].(type) {
	case *ast.CallExpr:
		if name, ok := selOnPackage(info, parent.Fun, "time"); ok && name == "Since" {
			return true
		}
	case *ast.AssignStmt:
		// start := time.Now() is fine when start is only ever measured
		// against (passed to a call, or a .Sub operand).
		idx := -1
		for i, r := range parent.Rhs {
			if r == call {
				idx = i
			}
		}
		if idx < 0 || idx >= len(parent.Lhs) {
			return false
		}
		id, ok := parent.Lhs[idx].(*ast.Ident)
		if !ok || id.Name == "_" {
			return false
		}
		obj := objOf(info, id)
		if obj == nil {
			return false
		}
		body := enclosingFuncBody(parents, call)
		if body == nil {
			return false
		}
		ok = true
		ast.Inspect(body, func(n ast.Node) bool {
			use, isIdent := n.(*ast.Ident)
			if !isIdent || info.Uses[use] != obj || !ok {
				return ok
			}
			switch up := parents[use].(type) {
			case *ast.CallExpr:
				for _, a := range up.Args {
					if a == use {
						return ok
					}
				}
				ok = false
			case *ast.SelectorExpr:
				if up.Sel.Name != "Sub" {
					ok = false
				}
			default:
				ok = false
			}
			return ok
		})
		return ok
	}
	return false
}

// randConstructors are the math/rand names that build seeded generators;
// everything else on the package draws from the unseeded global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// checkRandomness flags draws from the global math/rand source and any
// crypto/rand use: both produce different output on every run. Methods on
// a seeded *rand.Rand are untouched.
func checkRandomness(p *SourcePackage) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, ok := selOnPackage(p.Info, call.Fun, "math/rand", "math/rand/v2"); ok && !randConstructors[name] {
				out = append(out, p.finding(Warning, "randomness", call.Pos(),
					fmt.Sprintf("rand.%s draws from the unseeded global source; runs are not reproducible", name),
					"draw from rand.New(rand.NewSource(seed)) with a caller-supplied seed"))
			}
			if name, ok := selOnPackage(p.Info, call.Fun, "crypto/rand"); ok {
				out = append(out, p.finding(Warning, "randomness", call.Pos(),
					fmt.Sprintf("crypto/rand.%s reads hardware entropy; runs are not reproducible", name),
					"use a seeded math/rand source for anything that influences results"))
			}
			return true
		})
	}
	return out
}
