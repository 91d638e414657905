// Package dirty holds deliberate violations of every compiler gate:
// the regression tests compile it for real and require every injected
// defect to be reported. If a toolchain change makes any of these
// pass, the corresponding gate has gone blind.
package dirty

import "fmt"

// Sink keeps results observable.
var Sink int

// Leaky violates noalloc: returning the address of a local forces it
// off the stack ("moved to heap").
//
//polyvet:noalloc injected regression: the result pointer escapes
func Leaky(n int) *int {
	x := n * 2
	return &x
}

// Gather violates nobce: neither dst[i] nor src[j] relates to a loop
// bound the prove pass can use, so both checks stay in the loop.
//
//polyvet:nobce injected regression: unprovable indices in the loop
func Gather(dst, src []byte, idx []int) {
	for i, j := range idx {
		dst[i] = src[j]
	}
}

// Heavy violates inline: defer is beyond the inliner.
//
//polyvet:inline injected regression: defer blocks inlining
func Heavy(fn func()) int {
	defer fn()
	Sink++
	return Sink
}

// NoLoops wastes a nobce directive: nothing to bounds-check means the
// annotation pays no rent and must be flagged.
//
//polyvet:nobce injected regression: directive on a loop-free function
func NoLoops(a, b int) int { return a + b }

// LeakyBuffer violates noalloc: the make outlives the call, where
// clean.StackBuffer's identical make stays on the stack.
//
//polyvet:noalloc injected regression: the returned buffer escapes
func LeakyBuffer(n int) []byte {
	buf := make([]byte, n)
	return buf
}

// Hook keeps Deferred's closure reachable.
var Hook func()

// Deferred violates noalloc: the closure captures n and outlives the
// call, so the compiler heap-allocates it.
//
//polyvet:noalloc injected regression: the capturing closure escapes
func Deferred(n int) {
	Hook = func() { Sink += n }
}

// Spawn violates noalloc: a goroutine costs an allocation though no
// value escapes, so escape analysis reports nothing here.
//
//polyvet:noalloc injected regression: a goroutine per call
func Spawn(fn func()) {
	go fn()
}

// Boxed violates noalloc: fmt.Sprint boxes its int argument.
//
//polyvet:noalloc injected regression: an interface-boxed argument
func Boxed(n int) string {
	return fmt.Sprint(n)
}

// Formatted violates noalloc with no boxing at all: fmt allocates the
// result inside the callee, where escape analysis does not look.
//
//polyvet:noalloc injected regression: fmt allocates internally
func Formatted() string {
	return fmt.Sprintf("x")
}

// Orphan carries a noalloc directive that guards no function, so it
// pays no rent and must be flagged.
//
//polyvet:noalloc injected regression: directive on a variable
var Orphan int
