// Package scotch is strict: every export needs a doc comment.
package scotch

func Undocumented() int { return 1 }

// Documented has its comment.
func Documented() int { return 2 }
