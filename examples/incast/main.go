// Incast (Figure 1c pattern): N synchronized servers each send a
// short block to one aggregator — the classic partition-aggregate
// pathology. The example sweeps N for Polyraptor and TCP on the same
// fat-tree through the sweep engine: every (protocol, N) point is one
// cell repeated over SplitMix-derived sub-seeds on the parallel worker
// pool, so the repetitions are statistically independent and the whole
// table takes about as long as its slowest single cell. TCP collapses
// (timeouts dominate), Polyraptor holds near line rate because the
// receiver's single pull queue paces all sessions jointly and
// overloaded queues trim instead of dropping.
//
// Run with:
//
//	go run ./examples/incast
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
	// k=6 -> 54 hosts: enough for 40 senders, fast to run.
	if err := demo(os.Stdout, 6, []int{2, 5, 10, 20, 30, 40}, 70<<10, 3, 0); err != nil {
		log.Fatal(err)
	}
}

// demo sweeps sender counts for Polyraptor and TCP, `reps` seeds per
// point, and prints mean goodput with 95% confidence half-widths.
func demo(w io.Writer, k int, senders []int, block int64, reps, parallelism int) error {
	var cells []sweep.Cell
	for _, n := range senders {
		sc := harness.Incast{FatTreeK: k, Senders: n, Bytes: block}
		for _, be := range []store.BackendKind{store.BackendPolyraptor, store.BackendTCP} {
			cells = append(cells, sweep.Cell{
				Scenario: "incast",
				Backend:  be.String(),
				Params:   map[string]string{"senders": fmt.Sprint(n)},
				Runner: sweep.RunnerFunc(func(seed int64) (sweep.Metrics, error) {
					res, err := harness.Run(sc, be, seed, harness.Observers{})
					return res.Metrics, err
				}),
			})
		}
	}
	res, err := sweep.Matrix{Cells: cells, Seeds: reps, BaseSeed: 1, Parallelism: parallelism}.Run()
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "incast on a k=%d fat-tree, %d KB per sender, %d independent seeds per point\n\n",
		k, block>>10, reps)
	fmt.Fprintf(w, "%8s %10s %7s %10s %7s %10s\n", "senders", "RQ (Gbps)", "±CI95", "TCP (Gbps)", "±CI95", "RQ/TCP")
	for i, n := range senders {
		rqCell, tcpCell := res.Cells[2*i], res.Cells[2*i+1]
		if len(rqCell.Errors) > 0 || len(tcpCell.Errors) > 0 {
			return fmt.Errorf("incast n=%d failed: %v %v", n, rqCell.Errors, tcpCell.Errors)
		}
		rq, _ := rqCell.Metric("goodput_gbps")
		tcp, _ := tcpCell.Metric("goodput_gbps")
		fmt.Fprintf(w, "%8d %10.3f %7.3f %10.3f %7.3f %9.1fx\n",
			n, rq.Mean, rq.CI95, tcp.Mean, tcp.CI95, rq.Mean/tcp.Mean)
	}
	fmt.Fprintln(w, "\nPolyraptor is incast-free: pull pacing + packet trimming + rateless symbols.")
	return nil
}
