package polyraptor_test

// The paper's figures, ablations and extensions are poly bench's
// (cmd/poly), pinned by its CSV golden; this file keeps the one
// benchmark of the codec model the facade exposes.

import (
	"fmt"
	"sync"
	"testing"

	"polyraptor"
	"polyraptor/internal/harness"
)

var printOnce sync.Once

// BenchmarkDecodeOverheadCurve regenerates the paper's footnote-2
// table (decode failure probability vs received overhead) using the
// real codec, and reports failure rates as bench metrics.
func BenchmarkDecodeOverheadCurve(b *testing.B) {
	rates := make([]float64, 3)
	for i := 0; i < b.N; i++ {
		for o := 0; o <= 2; o++ {
			var err error
			if rates[o], err = harness.MeasureDecodeFailure(64, o, 200, int64(i+1)); err != nil {
				b.Fatal(err)
			}
		}
	}
	printOnce.Do(func() {
		fmt.Printf("\n== Decode failure vs overhead (K=64, real codec) ==\n")
		for o, r := range rates {
			fmt.Printf("K+%d: measured %.4f   model %.1e\n", o, r, polyraptor.DecodeFailureProb(o))
		}
		fmt.Println()
	})
	b.ReportMetric(rates[0], "fail@+0")
	b.ReportMetric(rates[2], "fail@+2")
}
