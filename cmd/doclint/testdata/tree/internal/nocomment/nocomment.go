package nocomment

// Used is called from cmd/tool.
func Used() {}
