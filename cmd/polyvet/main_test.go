package main

import "testing"

// PolyVet has one run mode, which applies the whole suite and the
// compiler gates: mode and subset flags and the vet-tool handshakes
// are usage errors, so a stale invocation fails loudly rather than
// running less.
func TestRunRejectsRemovedFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-deep", "./..."},
		{"-analyzers", "detmap", "./..."},
		{"-V=full"},
		{"-flags"},
	} {
		if got := run(args); got != 1 {
			t.Errorf("run %q exit = %d, want 1", args, got)
		}
	}
}

// Over this command's own package: a main package is not sim-visible
// and carries no annotations, so the run is clean.
func TestRunStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list and go build")
	}
	if got := run([]string{"."}); got != 0 {
		t.Errorf("standalone run exit = %d, want 0", got)
	}
}

// With no flags, run reaches the compiler gates: the deep fixture's
// dirty package (noalloc escapes among other planted bugs) fails, and
// its clean twin passes.
func TestRunNoFlagsReachesCompilerGates(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list and go build")
	}
	t.Chdir("../../internal/polyvet/deep/testdata/src/deepmod")
	if got := run([]string{"./dirty/"}); got != 2 {
		t.Errorf("run ./dirty/ exit = %d, want 2", got)
	}
	if got := run([]string{"./clean/"}); got != 0 {
		t.Errorf("run ./clean/ exit = %d, want 0", got)
	}
}
