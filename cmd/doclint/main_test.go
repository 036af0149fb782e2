package main

import (
	"strings"
	"testing"
)

// TestFixtureTree runs every check over testdata/tree, which holds one
// case of each rule: a package without a package comment, an undocumented
// export in a strict package, and exports and methods the unused check
// must flag or pass.
func TestFixtureTree(t *testing.T) {
	got, err := run("testdata/tree")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/nocomment: package nocomment has no package comment",
		"testdata/tree/internal/scotch/scotch.go:4: exported function Undocumented has no doc comment",
		// Called only from lib_test.go (package lib).
		"testdata/tree/internal/lib/lib.go:14: exported OnlyOwnTests has no reference outside its own package's tests",
		// Called only from ext_test.go (package lib_test).
		"testdata/tree/internal/lib/lib.go:17: exported ExtOnly has no reference outside its own package's tests",
		// Mentioned only by its own method and by lib_test.go.
		"testdata/tree/internal/lib/lib.go:20: exported Orphan has no reference outside its own package's tests",
		// Called only from lib_test.go.
		"testdata/tree/internal/lib/lib.go:23: exported method Orphan.Self has no caller outside its own package's tests",
		// Called only from lib_test.go and ext_test.go.
		"testdata/tree/internal/lib/lib.go:30: exported method Counter.OnlyTests has no caller outside its own package's tests",
		// Called from its own body and lib_test.go.
		"testdata/tree/internal/lib/lib.go:34: exported method Counter.Countdown has no caller outside its own package's tests",
	}
	// Not flagged: UsedByCode (cmd/tool), Internal (lib.go), Fixture
	// (another package's test), Documented, the allowlisted
	// openflow.ReasonAction, and the methods Counter.Size (called through
	// an interface in cmd/tool), Counter.FromOtherTest (called from
	// cmd/tool's test) and Counter.String (exempt).
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("violations:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestRepoClean holds the repository itself to every check.
func TestRepoClean(t *testing.T) {
	got, err := run("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("%d violation(s) in the repository:\n%s", len(got), strings.Join(got, "\n"))
	}
}
