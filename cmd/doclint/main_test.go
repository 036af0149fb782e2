package main

import (
	"strings"
	"testing"
)

// TestFixtureTree runs every check over testdata/tree, which holds one
// case of each rule: a package without a package comment, an undocumented
// export in a strict package, a type the unused check must flag, the
// functions and methods the link check must flag or pass, a method the
// linker keeps only by its name, a binary that blinds the link check, and
// a function only the bench harness links.
func TestFixtureTree(t *testing.T) {
	got, notes, err := run("testdata/tree")
	if err != nil {
		t.Fatal(err)
	}
	const lib = "testdata/tree/internal/lib/lib.go"
	want := []string{
		"internal/nocomment: package nocomment has no package comment",
		"testdata/tree/internal/scotch/scotch.go:4: exported function Undocumented has no doc comment",
		// Mentioned only by its own method and by lib_test.go.
		lib + ":44: exported Orphan has no reference outside its own package's tests",
		// Calls a method by name, so the linker keeps every exported method.
		"fixture/cmd/reflector: links reflect.Value.Method, which keeps every exported method and blinds the link check",
		"fixture/cmd/reflector: links reflect.Value.MethodByName, which keeps every exported method and blinds the link check",
		// Called only from cmd/tool's test.
		lib + ":17: func Fixture is linked into no binary",
		// Called only from lib_test.go (package lib).
		lib + ":20: func OnlyOwnTests is linked into no binary",
		// Called only from ext_test.go (package lib_test).
		lib + ":23: func ExtOnly is linked into no binary",
		// Unexported, called only from lib_test.go.
		lib + ":26: func helper is linked into no binary",
		// Called only from lib_test.go.
		lib + ":47: method Orphan.Self is linked into no binary",
		// Called only from lib_test.go and ext_test.go.
		lib + ":54: method Counter.OnlyTests is linked into no binary",
		// Called only from cmd/tool's test.
		lib + ":60: method Counter.FromOtherTest is linked into no binary",
		// Called only from lib_test.go; cmd/tool calls Counter.Size, which
		// shares its name, so a rule matching names passes it.
		lib + ":70: method Gauge.Size is linked into no binary",
		// Called only from lib_test.go. cmd/tool converts Port, whose field
		// reaches Tunnel, to any and calls Node.Name through an interface,
		// so the linker keeps it by its name; no conversion reaches it.
		lib + ":81: method Tunnel.Name is linked only because an interface method shares its name: no conversion of Tunnel to an interface reaches it",
	}
	// Not flagged: UsedByCode (cmd/tool), Internal (lib.go), visit (called
	// from a closure), ring.push (instantiated with a struct shape),
	// Counter.Size and Node.Name (called through an interface, each type
	// converted to it), testsupport.Helper
	// (exempt by path), Documented, and the allowlisted
	// openflow.ReasonAction.
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("violations:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	wantNotes := lib + ":29: func BenchOnly is linked only into fixture/bench"
	if strings.Join(notes, "\n") != wantNotes {
		t.Fatalf("notes:\n%s\nwant:\n%s", strings.Join(notes, "\n"), wantNotes)
	}
}

// TestRepoClean holds the repository itself to every check.
func TestRepoClean(t *testing.T) {
	got, _, err := run("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("%d violation(s) in the repository:\n%s", len(got), strings.Join(got, "\n"))
	}
}
