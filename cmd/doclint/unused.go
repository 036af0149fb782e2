package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// unusedAllowed are exports kept without a caller: wire-protocol
// constants naming a value a peer may send, keyed "dir.Name".
var unusedAllowed = map[string]bool{
	"internal/openflow.ReasonAction": true,
	"internal/packet.FlagFIN":        true,
	"internal/packet.FlagRST":        true,
	"internal/packet.FlagPSH":        true,
}

// unusedExports reports every exported top-level identifier under
// internal/ that no non-test file and no other package's test
// references: an export only its own package's tests reach is deleted or
// moved into a _test.go file. References are found syntactically — a bare
// identifier in the declaring package's own files, or pkg.Name through an
// import — and a declaration never references itself, nor a type its own
// methods, so a type only its methods mention is reported too.
func unusedExports(fset *token.FileSet, files []srcFile) []string {
	exports := make(map[string]map[string]*ast.Ident) // dir -> name -> declaration
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		if exports[f.dir] == nil {
			exports[f.dir] = make(map[string]*ast.Ident)
		}
		for _, d := range f.ast.Decls {
			for _, id := range declNames(d) {
				if id.IsExported() && exports[f.dir][id.Name] == nil {
					exports[f.dir][id.Name] = id
				}
			}
		}
	}

	used := make(map[*ast.Ident]bool)
	for _, f := range files {
		imports := make(map[string]string) // local name -> dir under internal/
		for _, imp := range f.ast.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if i := strings.Index(path, "/internal/"); i >= 0 {
				name := path[strings.LastIndexByte(path, '/')+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				imports[name] = path[i+1:]
			}
		}
		for _, d := range f.ast.Decls {
			owner := declOwner(d)
			mark := func(dir, name string) {
				// The package's own tests, internal or external, do not count.
				if id := exports[dir][name]; id != nil && !(dir == f.dir && (f.test || name == owner)) {
					used[id] = true
				}
			}
			skip := make(map[*ast.Ident]bool) // declared names, selected fields
			for _, id := range declNames(d) {
				skip[id] = true
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						mark(imports[x.Name], n.Sel.Name)
					}
					skip[n.Sel] = true
				case *ast.Field:
					for _, id := range n.Names {
						skip[id] = true
					}
				case *ast.Ident:
					if !skip[n] {
						mark(f.dir, n.Name)
					}
				}
				return true
			})
		}
	}

	var out []string
	for dir, byName := range exports {
		for name, id := range byName {
			if !used[id] && !unusedAllowed[dir+"."+name] {
				p := fset.Position(id.Pos())
				out = append(out, fmt.Sprintf("%s:%d: exported %s has no reference outside its own package's tests",
					filepath.ToSlash(p.Filename), p.Line, name))
			}
		}
	}
	out = append(out, unusedMethods(fset, files)...)
	sort.Strings(out)
	return out
}

// interfaceMethods are method names a standard interface fixes; a type
// implements them for fmt, errors, encoding/json or net/http, so their
// callers live in the standard library.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
}

// unusedMethods reports every exported method of an exported type under
// internal/ whose name no non-test file selects (x.Name) outside the
// method's own body, and no other package's test selects either. The
// match is by name alone, like unusedExports: a call through an interface
// or on another type with the same method name keeps the method.
func unusedMethods(fset *token.FileSet, files []srcFile) []string {
	type method struct {
		dir  string
		decl *ast.FuncDecl
	}
	var methods []method
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || !fd.Name.IsExported() || interfaceMethods[fd.Name.Name] {
				continue
			}
			if _, exported := receiverName(fd.Recv); exported {
				methods = append(methods, method{f.dir, fd})
			}
		}
	}

	selected := make(map[string]*selection)
	for _, f := range files {
		for _, d := range f.ast.Decls {
			ast.Inspect(d, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				s := selected[sel.Sel.Name]
				if s == nil {
					s = &selection{make(map[ast.Decl]bool), make(map[string]bool)}
					selected[sel.Sel.Name] = s
				}
				if f.test {
					s.testDirs[f.dir] = true
				} else {
					s.decls[d] = true
				}
				return true
			})
		}
	}

	var out []string
	for _, m := range methods {
		if s := selected[m.decl.Name.Name]; s != nil && s.reaches(m.decl, m.dir) {
			continue
		}
		recv, _ := receiverName(m.decl.Recv)
		p := fset.Position(m.decl.Name.Pos())
		out = append(out, fmt.Sprintf("%s:%d: exported method %s.%s has no caller outside its own package's tests",
			filepath.ToSlash(p.Filename), p.Line, recv, m.decl.Name.Name))
	}
	return out
}

// selection records where one name is selected (x.Name): the enclosing
// declaration of each selection in non-test code, and the directories of
// the tests that select it.
type selection struct {
	decls    map[ast.Decl]bool
	testDirs map[string]bool
}

// reaches reports whether the name is selected in non-test code outside
// self, the method's own declaration, or in a test outside dir, the
// method's own package.
func (s *selection) reaches(self ast.Decl, dir string) bool {
	for d := range s.decls {
		if d != self {
			return true
		}
	}
	for td := range s.testDirs {
		if td != dir {
			return true
		}
	}
	return false
}

// declNames lists the top-level names a declaration introduces; a method
// introduces none.
func declNames(d ast.Decl) []*ast.Ident {
	var out []*ast.Ident
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			out = append(out, d.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				out = append(out, s.Name)
			case *ast.ValueSpec:
				out = append(out, s.Names...)
			}
		}
	}
	return out
}

// declOwner names the identifier a declaration belongs to: a method's
// receiver type, or a declaration's only name.
func declOwner(d ast.Decl) string {
	fd, ok := d.(*ast.FuncDecl)
	if !ok || fd.Recv == nil {
		if names := declNames(d); len(names) == 1 {
			return names[0].Name
		}
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
