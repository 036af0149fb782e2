package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// unusedAllowed are exports kept without a caller: wire-protocol
// constants naming a value a peer may send, keyed "dir.Name".
var unusedAllowed = map[string]bool{
	"internal/openflow.ReasonAction": true,
	"internal/openflow.RoleNoChange": true,
	"internal/packet.FlagFIN":        true,
	"internal/packet.FlagRST":        true,
	"internal/packet.FlagPSH":        true,
}

// unusedExports reports every exported type, constant and variable under
// internal/ that no non-test file and no other package's test references:
// an export only its own package's tests reach is deleted or moved into a
// _test.go file. Functions and methods are judged by the linker instead
// (linkCheck). References are found syntactically — a bare identifier in
// the declaring package's own files, or pkg.Name through an import — and
// a declaration never references itself, nor a type its own methods, so
// a type only its methods mention is reported too.
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
	sort.Strings(out)
	return out
}

// declNames lists the types, constants and variables a top-level
// declaration introduces.
func declNames(d ast.Decl) []*ast.Ident {
	g, ok := d.(*ast.GenDecl)
	if !ok {
		return nil
	}
	var out []*ast.Ident
	for _, spec := range g.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			out = append(out, s.Name)
		case *ast.ValueSpec:
			out = append(out, s.Names...)
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

// testSupportDir is the one package under internal/ that holds helpers
// only tests call, which the link check therefore skips.
const testSupportDir = "internal/testsupport"

// linkCheck reports every function and method that a non-test,
// default-tag file under internal/ (testSupportDir aside) declares and no
// binary of the module links. It builds every main package that imports
// internal/ in one `go build` with inlining off and reads the binaries'
// text symbols with `go tool nm`. The linker drops whatever nothing
// reachable calls, whatever names other types share with it, but keeps a
// method matching a called interface method by name and signature once
// its type is converted to an interface, or is reachable from the fields
// of one that is. So a type-checking pass (reach) also flags a linked
// method that only that name match keeps: no non-test conversion of its
// type targets an interface holding it, no type assertion asks for it,
// and no non-test code names it. A binary linking
// reflect.Value.Method or MethodByName keeps every exported method, which
// would blind the check, so that is a violation too. The notes list what
// only binaries outside cmd/ and examples/, the shipped programs, link.
func linkCheck(fset *token.FileSet, root string, files []srcFile) (violations, notes []string, err error) {
	out, err := goOutput(root, "list", "-json=ImportPath,Name,GoFiles,Deps,Module", "./...")
	if err != nil {
		return nil, nil, err
	}
	type goPackage struct {
		ImportPath, Name string
		GoFiles, Deps    []string // GoFiles: default-tag non-test files
		Module           struct{ Path string }
	}
	var pkgs []goPackage
	for dec := json.NewDecoder(strings.NewReader(out)); dec.More(); {
		var p goPackage
		if err := dec.Decode(&p); err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, p)
	}
	module := pkgs[0].Module.Path
	goFiles := make(map[string]bool) // dir/base of every default-tag non-test file
	var mains []string
	for _, p := range pkgs {
		dir, _ := strings.CutPrefix(p.ImportPath, module+"/")
		for _, f := range p.GoFiles {
			goFiles[dir+"/"+f] = true
		}
		if p.Name == "main" && slices.ContainsFunc(p.Deps, func(d string) bool { return strings.HasPrefix(d, module+"/internal/") }) {
			mains = append(mains, p.ImportPath)
		}
	}
	if len(mains) == 0 {
		return nil, nil, fmt.Errorf("no main package imports %s/internal/", module)
	}

	bin, err := os.MkdirTemp("", "doclint-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(bin)
	if _, err := goOutput(root, append([]string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}, mains...)...); err != nil {
		return nil, nil, err
	}
	linkedBy := make(map[string][]string) // function key -> binaries linking it
	for _, m := range mains {
		syms, err := goOutput(root, "tool", "nm", filepath.Join(bin, path.Base(m)))
		if err != nil {
			return nil, nil, err
		}
		for _, line := range strings.Split(syms, "\n") {
			// "addr type name": the name may hold spaces (struct shapes).
			_, rest, _ := strings.Cut(strings.TrimLeft(line, " "), " ")
			typ, sym, _ := strings.Cut(rest, " ")
			if typ != "T" && typ != "t" {
				continue
			}
			if sym == "reflect.Value.Method" || sym == "reflect.Value.MethodByName" {
				violations = append(violations, m+": links "+sym+", which keeps every exported method and blinds the link check")
			}
			if k, by := funcKey(sym), linkedBy[funcKey(sym)]; len(by) == 0 || by[len(by)-1] != m {
				linkedBy[k] = append(by, m)
			}
		}
	}

	exports, err := exportFiles(root)
	if err != nil {
		return nil, nil, err
	}
	byPkg := make(map[string][]*ast.File) // import path -> non-test default-tag files
	for _, f := range files {
		if goFiles[f.dir+"/"+f.base] {
			byPkg[module+"/"+f.dir] = append(byPkg[module+"/"+f.dir], f.ast)
		}
	}
	reached, declared, err := checkPackages(fset, byPkg, exports)
	if err != nil {
		return nil, nil, err
	}

	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") || f.dir == testSupportDir || !goFiles[f.dir+"/"+f.base] {
			continue
		}
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || (fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "_")) {
				continue
			}
			what, name := "func", fd.Name.Name
			if fd.Recv != nil {
				what, name = "method", declOwner(fd)+"."+name
			}
			p := fset.Position(fd.Name.Pos())
			at := fmt.Sprintf("%s:%d: %s %s", filepath.ToSlash(p.Filename), p.Line, what, name)
			key := module + "/" + f.dir + "." + name
			by := linkedBy[key]
			shipped := slices.ContainsFunc(by, func(b string) bool {
				return strings.HasPrefix(b, module+"/cmd/") || strings.HasPrefix(b, module+"/examples/")
			})
			switch {
			case len(by) == 0:
				violations = append(violations, at+" is linked into no binary")
			case fd.Recv != nil && declared[key] != nil && reached.nameOnly(module+"/"+f.dir+"."+declOwner(fd), key, declared[key]):
				violations = append(violations, at+" is linked only because an interface method shares its name: no conversion of "+
					declOwner(fd)+" to an interface reaches it")
			case !shipped:
				notes = append(notes, at+" is linked only into "+strings.Join(by, ", "))
			}
		}
	}
	return violations, notes, nil
}

// shape matches an innermost generic shape bracket, which may hold spaces,
// dots and slashes; compilerSuffix matches what the compiler appends to a
// function's name: closures (.func1.2), go and defer wrappers (.gowrap1,
// .deferwrap1), method values (-fm) and range-over-func bodies (-range1).
var (
	shape          = regexp.MustCompile(`\[[^][]*\]`)
	compilerSuffix = regexp.MustCompile(`-\w+|(\.((func|gowrap|deferwrap)?\d+)?)+$`)
)

// funcKey maps a text symbol to the declaration it belongs to, as
// "import/path.Func" or "import/path.Recv.Method", or "" for a symbol
// with no package-qualified name.
func funcKey(sym string) string {
	for shape.MatchString(sym) {
		sym = shape.ReplaceAllString(sym, "")
	}
	slash := strings.LastIndexByte(sym, '/') + 1
	pkg, name, ok := strings.Cut(sym[slash:], ".")
	if !ok {
		return ""
	}
	name = strings.NewReplacer("(*", "", ")", "").Replace(name)
	return sym[:slash] + pkg + "." + compilerSuffix.ReplaceAllString(name, "")
}

// goOutput runs the go command in dir and returns its standard output.
func goOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		err = fmt.Errorf("go %s: %v\n%s", args[0], err, exit.Stderr)
	} else if err != nil {
		err = fmt.Errorf("go %s: %w", args[0], err)
	}
	return string(out), err
}
