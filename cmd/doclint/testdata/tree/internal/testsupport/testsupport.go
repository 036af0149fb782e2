// Package testsupport holds helpers only tests call; the link check
// exempts it by path.
package testsupport

// Helper is called only from lib_test.go.
func Helper() int { return 7 }
