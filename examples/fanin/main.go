// Fanin: the N-host topology and workload engine driving the §3
// demultiplexing argument on live connections. A growing population of
// clients hammers one server through an output-queued ATM switch, under
// both PCB organizations. With the linear list, every cache-missed
// demultiplex at the server walks the live connection population; the
// hash organization looks up in constant time — so the gap between the
// two columns widens as the fan-in grows, which is exactly the paper's
// prediction, produced here by real concurrent traffic instead of an
// idle population opened ahead of one echo (lab.Config.LivePCBs).
//
// The study fans out through the sweep engine: the same grid runs
// serially first to verify that per-trial seeds derived from grid
// position make the parallel run bit-identical.
//
// Run with: go run ./examples/fanin
package main

import (
	"context"
	"fmt"
	"log"
	"reflect"
	"runtime"

	"repro/internal/core"
	"repro/internal/runner"
)

func main() {
	trials := core.FanInTrials([]int{1, 4, 8, 16}, 12)
	fmt.Printf("%d cells (workload × clients × PCB organization), %d workers\n\n",
		len(trials), runtime.GOMAXPROCS(0))

	serial, err := runner.RunWorkloadSweep(context.Background(), trials,
		runner.Options{Workers: 1, BaseSeed: 1994})
	if err != nil {
		log.Fatal(err)
	}

	parallel, err := runner.RunWorkloadSweep(context.Background(), trials,
		runner.Options{
			BaseSeed: 1994,
			Progress: func(done, total int) {
				fmt.Printf("\r%d/%d cells", done, total)
			},
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	if !reflect.DeepEqual(serial, parallel) {
		log.Fatal("parallel sweep diverged from the serial reference")
	}
	fmt.Println("parallel results bit-identical to the serial reference")
	fmt.Println()
	fmt.Print((&core.FanInResult{Outcomes: parallel}).Render())
	fmt.Println("\nReading: each fan-in cell is M clients with one live connection")
	fmt.Println("each; churn cells open and close connections continuously, so the")
	fmt.Println("population also exercises PCB insert/delete. The list column grows")
	fmt.Println("faster than the hash column with client count — the §3 effect on")
	fmt.Println("live populations.")
}
