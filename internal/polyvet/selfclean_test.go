package polyvet_test

import (
	"testing"

	"polyraptor/internal/polyvet/deep"
)

// TestRepoIsClean is the enforcement test: the whole module must pass
// exactly what `polyvet ./...` runs — the detmap, simclock and
// rngstream suite plus the escape, bce and inline compiler gates —
// with zero findings. Every invariant violation either gets fixed or
// gets an adjacent //polyvet: annotation with a reason; there is no
// third state.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and compiles the whole module")
	}
	res, err := deep.Analyze("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("analyzing module: %v", err)
	}
	if res.FormatSkew {
		t.Errorf("compiler diagnostic format drift: a gate skipped")
	}
	for _, d := range res.Diags {
		t.Errorf("%s", d)
	}
}
