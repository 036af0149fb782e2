// Command reflector calls a method by name, which keeps every exported
// method of its types in the binary.
package main

import (
	"reflect"

	"fixture/internal/nocomment"
)

func main() {
	nocomment.Used()
	reflect.ValueOf(struct{}{}).MethodByName("Used")
}
