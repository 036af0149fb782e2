// Command doclint enforces the repository's documentation floor: every
// package under internal/ must carry a package comment, and in the
// packages listed in strictPkgs every exported top-level declaration —
// types, functions, methods on exported receivers, consts and vars —
// must have a doc comment. A const/var block's doc comment covers all of
// its specs. Every exported type, constant and variable under internal/
// must also be referenced from outside its own package's tests (see
// unusedExports), and every function and method declared there must be
// linked into one of the module's binaries for a reason other than
// sharing a called interface method's name (see linkCheck), which also
// prints, as notes, the functions only the benchmark harness links.
//
// Usage:
//
//	go run ./cmd/doclint [root]
//
// root defaults to ".". Exits nonzero listing each violation as
// file:line: message, so it slots into make/CI like a vet pass.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// strictPkgs are the directories (relative to the repo root) whose
// exported surface must be fully documented, not just present.
var strictPkgs = map[string]bool{
	"internal/scotch":  true,
	"internal/cluster": true,
	"internal/devolve": true,
	"internal/fault":   true,
	"internal/obs":     true,
	"internal/balance": true,
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	violations, notes, err := run(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		os.Exit(2)
	}
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Println(v)
		}
		fmt.Fprintf(os.Stderr, "doclint: %d violation(s)\n", len(violations))
		os.Exit(1)
	}
}

// srcFile is one parsed Go file of the module.
type srcFile struct {
	dir  string // relative to the module root, slash-separated
	base string // file name
	test bool
	ast  *ast.File
}

// run applies every check to the module at root and returns the
// violations, package and doc comments package by package, then unused
// exports, then unlinked functions, and the link check's notes.
func run(root string) (violations, notes []string, err error) {
	fset := token.NewFileSet()
	files, err := parseModule(fset, root)
	if err != nil {
		return nil, nil, err
	}
	var dirs []string
	byDir := make(map[string][]*ast.File)
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.dir, "internal/") {
			continue
		}
		if byDir[f.dir] == nil {
			dirs = append(dirs, f.dir)
		}
		byDir[f.dir] = append(byDir[f.dir], f.ast)
	}
	var out []string
	for _, dir := range dirs {
		// Test files never count: a package comment must live in
		// shipping code, and test helpers are free to be terse.
		if !hasPackageComment(byDir[dir]) {
			out = append(out, fmt.Sprintf("%s: package %s has no package comment", dir, byDir[dir][0].Name.Name))
		}
		if strictPkgs[dir] {
			for _, f := range byDir[dir] {
				out = append(out, lintFile(fset, f)...)
			}
		}
	}
	out = append(out, unusedExports(fset, files)...)
	unlinked, notes, err := linkCheck(fset, root, files)
	if err != nil {
		return nil, nil, err
	}
	return append(out, unlinked...), notes, nil
}

// parseModule parses every Go file under root in path order, skipping
// testdata and hidden directories.
func parseModule(fset *token.FileSet, root string) ([]srcFile, error) {
	var files []srcFile
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		files = append(files, srcFile{filepath.ToSlash(dir), d.Name(), strings.HasSuffix(path, "_test.go"), f})
		return nil
	})
	return files, err
}

func hasPackageComment(files []*ast.File) bool {
	for _, f := range files {
		if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 0 {
			return true
		}
	}
	return false
}

// lintFile reports every exported, undocumented top-level declaration in
// one file.
func lintFile(fset *token.FileSet, f *ast.File) []string {
	var out []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
			filepath.ToSlash(p.Filename), p.Line, what, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			if d.Recv != nil {
				// Methods on unexported types are not part of the API surface.
				if recv := declOwner(d); token.IsExported(recv) {
					report(d.Pos(), "method", recv+"."+d.Name.Name)
				}
			} else {
				report(d.Pos(), "function", d.Name.Name)
			}
		case *ast.GenDecl:
			if d.Tok == token.IMPORT {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					// The block's doc comment covers every spec in it;
					// a spec-level doc or trailing line comment also counts.
					if d.Doc != nil || s.Doc != nil || s.Comment != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() {
							report(n.Pos(), d.Tok.String(), n.Name)
						}
					}
				}
			}
		}
	}
	return out
}
