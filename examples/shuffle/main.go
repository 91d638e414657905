// Shuffle (many-to-many): M mappers each transfer one distinct
// partition to every one of R reducers, the full M×R matrix at once —
// the pattern that completes Polyraptor's claim of serving all three
// data-centre traffic patterns with one rateless transport. The
// example sweeps the mapper count for Polyraptor and TCP on the same
// fat-tree through the sweep engine and reports shuffle completion
// time (the slowest pair gates the job). As the per-reducer fan-in
// grows past TCP's incast knee its completion time collapses, while
// Polyraptor's reducers jointly pace all inbound pairs through one
// pull queue and keep the job near the fabric's limit.
//
// Run with:
//
//	go run ./examples/shuffle
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"polyraptor/internal/harness"
	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
)

func main() {
	// k=6 -> 54 hosts: room for 16 mappers + 8 reducers.
	if err := demo(os.Stdout, 6, []int{2, 4, 8, 12, 16}, 8, 128<<10, 3, 0); err != nil {
		log.Fatal(err)
	}
}

// demo sweeps mapper counts for Polyraptor and TCP, `reps` seeds per
// point, and prints mean shuffle completion time with 95% confidence
// half-widths.
func demo(w io.Writer, k int, mappers []int, reducers int, pairBytes int64, reps, parallelism int) error {
	var cells []sweep.Cell
	for _, m := range mappers {
		opt := harness.ShuffleOptions{
			FatTreeK:     k,
			Mappers:      m,
			Reducers:     reducers,
			BytesPerPair: pairBytes,
			Skew:         0.9,
		}
		if err := opt.Validate(); err != nil {
			return err
		}
		for _, be := range []store.BackendKind{store.BackendPolyraptor, store.BackendTCP} {
			opt, be := opt, be
			cells = append(cells, sweep.Cell{
				Scenario: "shuffle",
				Backend:  be.String(),
				Params:   map[string]string{"mappers": fmt.Sprint(m)},
				Runner: sweep.RunnerFunc(func(seed int64) (sweep.Metrics, error) {
					res, err := harness.Run(opt, be, seed, harness.Observers{})
					return res.Metrics, err
				}),
			})
		}
	}
	res, err := sweep.Matrix{Cells: cells, Seeds: reps, BaseSeed: 1, Parallelism: parallelism}.Run()
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "shuffle on a k=%d fat-tree, %d reducers, %d KB mean partition, %d seeds per point\n\n",
		k, reducers, pairBytes>>10, reps)
	fmt.Fprintf(w, "%8s %10s %7s %10s %7s %10s\n", "mappers", "RQ (ms)", "±CI95", "TCP (ms)", "±CI95", "TCP/RQ")
	for i, m := range mappers {
		rqCell, tcpCell := res.Cells[2*i], res.Cells[2*i+1]
		if len(rqCell.Errors) > 0 || len(tcpCell.Errors) > 0 {
			return fmt.Errorf("shuffle m=%d failed: %v %v", m, rqCell.Errors, tcpCell.Errors)
		}
		rq, _ := rqCell.Metric("shuffle_s")
		tcp, _ := tcpCell.Metric("shuffle_s")
		fmt.Fprintf(w, "%8d %10.2f %7.2f %10.2f %7.2f %9.1fx\n",
			m, rq.Mean*1e3, rq.CI95*1e3, tcp.Mean*1e3, tcp.CI95*1e3, tcp.Mean/rq.Mean)
	}
	fmt.Fprintln(w, "\nOne rateless transport, all three patterns: the reducers' shared pull")
	fmt.Fprintln(w, "queues pace the whole matrix; no per-flow congestion control needed.")
	return nil
}
