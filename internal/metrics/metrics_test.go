package metrics

import (
	"math"
	"testing"
)

func TestSLO(t *testing.T) {
	var none SLO
	if none.Enabled() {
		t.Fatal("zero SLO must be disabled")
	}
	s := SLO{FCTDeadline: 0.5, GoodputFloor: 1.0}
	if !s.Enabled() {
		t.Fatal("SLO with criteria must be enabled")
	}
	if none.Validate() != nil || s.Validate() != nil {
		t.Fatal("valid SLO rejected")
	}
	if (SLO{FCTDeadline: -1}).Validate() == nil || (SLO{GoodputFloor: -1}).Validate() == nil {
		t.Fatal("negative SLO criterion accepted")
	}
	if !s.MetFCT(0.4) || s.MetFCT(0.6) {
		t.Fatal("FCT deadline misapplied")
	}
	if !s.MetGoodput(1.5) || s.MetGoodput(0.5) {
		t.Fatal("goodput floor misapplied")
	}
	// A stalled flow (NaN FCT, NaN/zero goodput) always misses.
	if s.MetFCT(math.NaN()) || s.MetGoodput(math.NaN()) {
		t.Fatal("NaN must miss an enabled criterion")
	}
	if (SLO{GoodputFloor: 1}).MetFCT(math.NaN()) {
		t.Fatal("NaN FCT must miss even with the deadline disabled")
	}
}
