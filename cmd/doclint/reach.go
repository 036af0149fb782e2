package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"
)

// stdAsserted are the methods the standard library looks for, by type
// assertion, on values it is handed as interfaces: fmt's Stringer,
// GoStringer and Formatter, error and the errors package's Unwrap, Is and
// As, and encoding/json's and encoding's marshalers. A value converted to
// any and passed to fmt or json reaches them without a conversion to an
// interface that holds them. Keyed "Name signature".
var stdAsserted = map[string]bool{
	"String func() string":                   true,
	"GoString func() string":                 true,
	"Format func(fmt.State, rune)":           true,
	"Error func() string":                    true,
	"Unwrap func() error":                    true,
	"Unwrap func() []error":                  true,
	"Is func(error) bool":                    true,
	"As func(any) bool":                      true,
	"MarshalJSON func() ([]byte, error)":     true,
	"MarshalText func() ([]byte, error)":     true,
	"UnmarshalJSON func([]byte) error":       true,
	"UnmarshalText func([]byte) error":       true,
	"Timeout func() bool":                    true,
	"Temporary func() bool":                  true,
	"WriteTo func(io.Writer) (int64, error)": true,
}

// reach is what the module's non-test code does with its methods, found
// by type-checking it. Keys are the link check's: "import/path.Recv" for a
// type, "import/path.Recv.Method" for a method.
type reach struct {
	direct    map[string]bool // methods named in a call, method value or method expression
	viaIface  map[string]bool // methods some conversion of their type to an interface reaches
	converted map[string]bool // types converted to an interface, or reachable from one that is
	asserted  map[string]bool // "Name signature" of every method of an interface asserted to
}

// nameOnly reports whether the linker keeps method key of type recv only
// because a called interface method shares its name and signature: recv
// is converted to an interface, but no conversion targets an interface
// holding the method, no type assertion could find it, and no code names
// it.
func (r *reach) nameOnly(recv, key string, m *types.Func) bool {
	if !r.converted[recv] || r.direct[key] || r.viaIface[key] {
		return false
	}
	sig := methodSig(m)
	return !r.asserted[sig] && !stdAsserted[sig]
}

// methodSig renders a method as "Name signature": no receiver, no
// parameter names, types qualified by package name.
func methodSig(m *types.Func) string {
	s := m.Type().(*types.Signature)
	unnamed := func(t *types.Tuple) *types.Tuple {
		vars := make([]*types.Var, t.Len())
		for i := range vars {
			vars[i] = types.NewVar(token.NoPos, nil, "", t.At(i).Type())
		}
		return types.NewTuple(vars...)
	}
	plain := types.NewSignatureType(nil, nil, nil, unnamed(s.Params()), unnamed(s.Results()), s.Variadic())
	return m.Name() + " " + types.TypeString(plain, func(p *types.Package) string { return p.Name() })
}

// typeKey names a (possibly pointer to a) defined type as "path.Name",
// or "" for any other type.
func typeKey(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// methodKey names a declared method as "path.Recv.Method".
func methodKey(m *types.Func) string {
	m = m.Origin()
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	if k := typeKey(recv.Type()); k != "" {
		return k + "." + m.Name()
	}
	return ""
}

func isIface(t types.Type) bool { return t != nil && types.IsInterface(t) }

// checkPackages type-checks each package (import path -> its non-test,
// default-tag files), importing every dependency from the compiler's
// export data (exports: import path -> export file), and returns what
// they do with their methods, with the declared method of each method
// key.
func checkPackages(fset *token.FileSet, pkgs map[string][]*ast.File, exports map[string]string) (*reach, map[string]*types.Func, error) {
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})
	r := &reach{
		direct:    make(map[string]bool),
		viaIface:  make(map[string]bool),
		converted: make(map[string]bool),
		asserted:  make(map[string]bool),
	}
	declared := make(map[string]*types.Func)
	for path, files := range pkgs {
		info := &types.Info{
			Types:     make(map[ast.Expr]types.TypeAndValue),
			Defs:      make(map[*ast.Ident]types.Object),
			Uses:      make(map[*ast.Ident]types.Object),
			Instances: make(map[*ast.Ident]types.Instance),
		}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(path, fset, files, info); err != nil {
			return nil, nil, fmt.Errorf("type-checking %s: %v", path, err)
		}
		for _, obj := range info.Defs {
			if fn, ok := obj.(*types.Func); ok {
				if k := methodKey(fn); k != "" {
					declared[k] = fn
				}
			}
		}
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				if k := methodKey(fn); k != "" && !isIface(fn.Type().(*types.Signature).Recv().Type()) {
					r.direct[k] = true
				}
			}
		}
		for id, inst := range info.Instances {
			var tparams *types.TypeParamList
			switch obj := info.Uses[id].(type) {
			case *types.Func:
				tparams = obj.Type().(*types.Signature).TypeParams()
			case *types.TypeName:
				if n, ok := obj.Type().(*types.Named); ok {
					tparams = n.TypeParams()
				}
			}
			for i := 0; tparams != nil && i < tparams.Len() && i < inst.TypeArgs.Len(); i++ {
				r.convert(inst.TypeArgs.At(i), tparams.At(i).Constraint())
			}
		}
		for _, f := range files {
			r.walk(f, info)
		}
	}
	return r, declared, nil
}

// convert records that a value of type src is converted to type dst.
func (r *reach) convert(src, dst types.Type) {
	if src == nil || !isIface(dst) || isIface(src) {
		return
	}
	r.markConverted(src, make(map[types.Type]bool))
	iface := dst.Underlying().(*types.Interface)
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		if obj, _, _ := types.LookupFieldOrMethod(src, false, m.Pkg(), m.Name()); obj != nil {
			if fn, ok := obj.(*types.Func); ok {
				r.viaIface[methodKey(fn)] = true
			}
		}
	}
}

// markConverted marks t as converted to an interface, with every defined
// type reachable from its fields and elements. That is the linker's
// rule: reflection can turn any of them into an interface value, so a
// binary keeps each one's methods that share a name and signature with a
// called interface method.
func (r *reach) markConverted(t types.Type, seen map[types.Type]bool) {
	if seen[t] {
		return
	}
	seen[t] = true
	if k := typeKey(t); k != "" {
		if _, ok := t.(*types.Pointer); !ok {
			r.converted[k] = true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		r.markConverted(u.Elem(), seen)
	case *types.Slice:
		r.markConverted(u.Elem(), seen)
	case *types.Array:
		r.markConverted(u.Elem(), seen)
	case *types.Chan:
		r.markConverted(u.Elem(), seen)
	case *types.Map:
		r.markConverted(u.Key(), seen)
		r.markConverted(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			r.markConverted(u.Field(i).Type(), seen)
		}
	}
}

// walk records every implicit or explicit conversion to an interface in
// f — assignments, declarations, call arguments, returns, composite
// literal elements, channel sends, map keys, comparisons and conversions
// — and every interface a type assertion or type switch asks for.
func (r *reach) walk(f *ast.File, info *types.Info) {
	typeOf := info.TypeOf
	under := func(e ast.Expr) types.Type {
		if t := typeOf(e); t != nil {
			return t.Underlying()
		}
		return nil
	}
	var stack []ast.Node // n's ancestors, then n
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) && n.Tok != token.DEFINE {
				for i := range n.Rhs {
					r.convert(typeOf(n.Rhs[i]), typeOf(n.Lhs[i]))
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil && len(n.Values) == len(n.Names) {
				for _, v := range n.Values {
					r.convert(typeOf(v), typeOf(n.Type))
				}
			}
		case *ast.ReturnStmt:
			if sig := enclosingSig(stack, info); sig != nil && sig.Results().Len() == len(n.Results) {
				for i, e := range n.Results {
					r.convert(typeOf(e), sig.Results().At(i).Type())
				}
			}
		case *ast.CallExpr:
			r.call(n, info)
		case *ast.CompositeLit:
			r.compositeLit(n, info)
		case *ast.SendStmt:
			if ch, ok := under(n.Chan).(*types.Chan); ok {
				r.convert(typeOf(n.Value), ch.Elem())
			}
		case *ast.IndexExpr:
			if m, ok := under(n.X).(*types.Map); ok {
				r.convert(typeOf(n.Index), m.Key())
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				r.convert(typeOf(n.X), typeOf(n.Y))
				r.convert(typeOf(n.Y), typeOf(n.X))
			}
		case *ast.TypeAssertExpr:
			if n.Type != nil {
				r.assert(typeOf(n.Type))
			}
		case *ast.CaseClause:
			if len(stack) >= 3 {
				if _, ok := stack[len(stack)-3].(*ast.TypeSwitchStmt); ok {
					for _, e := range n.List {
						r.assert(typeOf(e))
					}
				}
			}
		}
		return true
	})
}

// enclosingSig returns the signature of the innermost function
// declaration or literal in stack, or nil.
func enclosingSig(stack []ast.Node, info *types.Info) *types.Signature {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			if obj := info.Defs[fn.Name]; obj != nil {
				sig, _ := obj.Type().(*types.Signature)
				return sig
			}
			return nil
		case *ast.FuncLit:
			sig, _ := info.TypeOf(fn).(*types.Signature)
			return sig
		}
	}
	return nil
}

// call records the conversions of a call's arguments to its parameters,
// or of an explicit conversion's operand to its type.
func (r *reach) call(n *ast.CallExpr, info *types.Info) {
	tv := info.Types[n.Fun]
	if tv.IsType() {
		if len(n.Args) == 1 {
			r.convert(info.TypeOf(n.Args[0]), tv.Type)
		}
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range n.Args {
		var p types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if n.Ellipsis.IsValid() {
				continue
			}
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				p = s.Elem()
			}
		case i < params.Len():
			p = params.At(i).Type()
		}
		r.convert(info.TypeOf(arg), p)
	}
}

// compositeLit records the conversions of a composite literal's elements
// to its field, element and key types.
func (r *reach) compositeLit(n *ast.CompositeLit, info *types.Info) {
	t := info.TypeOf(n)
	if t == nil {
		return
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	for i, elt := range n.Elts {
		key, val := ast.Expr(nil), elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, val = kv.Key, kv.Value
		}
		switch u := t.Underlying().(type) {
		case *types.Struct:
			if id, ok := key.(*ast.Ident); ok {
				if f, ok := info.Uses[id].(*types.Var); ok {
					r.convert(info.TypeOf(val), f.Type())
				}
			} else if key == nil && i < u.NumFields() {
				r.convert(info.TypeOf(val), u.Field(i).Type())
			}
		case *types.Slice:
			r.convert(info.TypeOf(val), u.Elem())
		case *types.Array:
			r.convert(info.TypeOf(val), u.Elem())
		case *types.Map:
			if key != nil {
				r.convert(info.TypeOf(key), u.Key())
			}
			r.convert(info.TypeOf(val), u.Elem())
		}
	}
}

// assert records the methods of an interface a type assertion or a type
// switch asks for, which any value converted to an interface may reach.
func (r *reach) assert(t types.Type) {
	if !isIface(t) {
		return
	}
	iface := t.Underlying().(*types.Interface)
	for i := 0; i < iface.NumMethods(); i++ {
		r.asserted[methodSig(iface.Method(i))] = true
	}
}

// exportFiles lists the compiler's export data file of every package the
// module's packages depend on, building them if needed.
func exportFiles(root string) (map[string]string, error) {
	out, err := goOutput(root, "list", "-deps", "-export", "-f", "{{.ImportPath}} {{.Export}}", "./...")
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok && file != "" {
			exports[path] = file
		}
	}
	return exports, nil
}
