// Chaos: kill a growing fraction of the fat tree's core links in the
// middle of a batch of cross-pod transfers and watch the two
// transports separate. Flow-hashed ECMP cannot see a *remote* dead
// link — a TCP flow whose hash leads through a core switch with a
// dead downlink retransmits into the blackhole until the deadline —
// while Polyraptor sprays every packet independently and recodes
// around whatever fraction of the fabric is gone: any surviving path
// carries the session. The example sweeps the failed-core-fraction
// past the point where ECMP strands flows and reports stall rates and
// completed-flow FCT tails for both.
//
// Run with:
//
//	go run ./examples/chaos
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"polyraptor/internal/harness"
	"polyraptor/internal/store"
	"polyraptor/internal/sweep"
)

func main() {
	// k=6 -> 54 hosts, 54 core links; 12 cross-pod 1 MB flows with the
	// fault striking 2 ms in (mid-flow), scored at a 2 s deadline.
	if err := demo(os.Stdout, 6, []float64{0, 0.125, 0.25, 0.5}, 12, 1<<20, 3, 0); err != nil {
		log.Fatal(err)
	}
}

// demo sweeps the failed-core-fraction for Polyraptor and TCP, `reps`
// seeds per point, and prints mean stall rate and completed-flow P99
// FCT for both.
func demo(w io.Writer, k int, fracs []float64, flows int, bytes int64, reps, parallelism int) error {
	base := harness.DefaultChaosOptions()
	base.FatTreeK = k
	base.Flows = flows
	base.Bytes = bytes
	base.Fault.FailAt = 2 * time.Millisecond
	base.Deadline = 2 * time.Second

	var cells []sweep.Cell
	for _, frac := range fracs {
		opt := base
		opt.Fault.Frac = frac
		if err := opt.Validate(); err != nil {
			return err
		}
		for _, be := range []store.BackendKind{store.BackendPolyraptor, store.BackendTCP} {
			opt, be := opt, be
			cells = append(cells, sweep.Cell{
				Scenario: "chaos",
				Backend:  be.String(),
				Params:   map[string]string{"frac": fmt.Sprint(frac)},
				Run: func(seed int64) (sweep.Metrics, sweep.Hists, error) {
					res, err := harness.Run(opt, be, seed, harness.Observers{})
					if err != nil {
						return nil, nil, err
					}
					r := res.Detail.(harness.ChaosRun)
					return sweep.Metrics{
						"stall_rate": r.StallRate(),
						"fct_p99_s":  r.FCT.P99,
					}, nil, nil
				},
			})
		}
	}
	res, err := sweep.Matrix{Cells: cells, Seeds: reps, BaseSeed: 1, Parallelism: parallelism}.Run()
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "mid-flow core-link blackholes on a k=%d fat-tree: %d cross-pod %d KB flows,\n",
		k, flows, bytes>>10)
	fmt.Fprintf(w, "fault at %v, never healed, %d seeds per point, scored at %v\n\n",
		base.Fault.FailAt, reps, base.Deadline)
	fmt.Fprintf(w, "%11s %11s %12s %13s %14s\n",
		"frac failed", "RQ stalled", "TCP stalled", "RQ p99 (ms)", "TCP p99 (ms)")
	for i, frac := range fracs {
		rqCell, tcpCell := res.Cells[2*i], res.Cells[2*i+1]
		if len(rqCell.Errors) > 0 || len(tcpCell.Errors) > 0 {
			return fmt.Errorf("chaos frac=%g failed: %v %v", frac, rqCell.Errors, tcpCell.Errors)
		}
		rqStall, _ := rqCell.Metric("stall_rate")
		tcpStall, _ := tcpCell.Metric("stall_rate")
		rqP99, _ := rqCell.Metric("fct_p99_s")
		tcpP99, _ := tcpCell.Metric("fct_p99_s")
		fmt.Fprintf(w, "%11.3f %10.0f%% %11.0f%% %13.1f %14.1f\n",
			frac, rqStall.Mean*100, tcpStall.Mean*100, rqP99.Mean*1e3, tcpP99.Mean*1e3)
	}
	fmt.Fprintln(w, "\nPer-packet spraying needs any surviving path; per-flow ECMP needs *its*")
	fmt.Fprintln(w, "path. TCP's completed-flow tail looks calm only because the stranded")
	fmt.Fprintln(w, "flows never finish at all.")
	return nil
}
