// Command alloccensus says where a workload allocates: it runs one of
// four shapes with every allocation sampled (runtime.MemProfileRate = 1)
// and prints each allocating site (the first frame outside the runtime,
// inlined frames expanded, as pprof's flat column names it) as heap
// objects per request — per host, for the idle shape — most first.
//
//   - -shape fanin is BenchmarkWallclockFanIn10k's configuration — a fat
//     tree, one staggered 200-byte request per client, streaming
//     statistics, construction included — on -hosts hosts (default 1,001).
//   - -shape loaded is one replica of the loaded-grid benchmark's trials:
//     tcp and rudp, each under drop-tail, RED and DRR, on a -hosts-host
//     hub (default 33) with burst loss, reordering and two cross flows,
//     run one after another on one testbed as the benchmark runs them.
//   - -shape echo is two replicas of the echo-small benchmark's grid: TCP
//     on both links with header prediction on and off, and UDP over ATM,
//     at the paper's four smallest sizes, 250 round trips a cell on the
//     two-host pair; a request is a round trip.
//   - -shape idle builds the fan-in's -hosts-host fat tree (default
//     1,001) and runs its loop until every service process has parked, with
//     no traffic: what a topology costs to exist, a host at a time.
//
// It is the census behind docs/PERFORMANCE.md items 17, 19, 20, 21 and
// 22; `make alloc-census` prints all four shapes.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/lab"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	runtime.MemProfileRate = 1
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "alloccensus:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("alloccensus", flag.ContinueOnError)
	shape := fs.String("shape", "fanin", "fanin: the served fan-in; loaded: one replica of loaded-grid's transport x qdisc trials; echo: two replicas of echo-small's grid; idle: the fan-in's fat tree, built and left idle")
	hosts := fs.Int("hosts", 0, "fanin and loaded: host 0 serves, every other makes requests (0: 1001 for fanin and idle, 33 for loaded); echo runs on the two-host pair")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	var census func(hosts int) (int, string, error)
	unit := "request"
	switch *shape {
	case "fanin", "idle":
		census = fanIn
		if *shape == "idle" {
			census, unit = idle, "host" // what a topology costs to exist
		}
		if *hosts == 0 {
			*hosts = 1001
		}
	case "loaded":
		census = loaded
		if *hosts == 0 {
			*hosts = 33
		}
	case "echo":
		census = echo
		*hosts = 2
	default:
		return fmt.Errorf("unknown -shape %q (fanin, loaded, echo, idle)", *shape)
	}
	if *hosts < 2 {
		return fmt.Errorf("-hosts must be at least 2, have %d", *hosts)
	}
	if runtime.MemProfileRate != 1 {
		return fmt.Errorf("the census needs runtime.MemProfileRate = 1, have %d", runtime.MemProfileRate)
	}

	before := objectsByStack()
	requests, what, err := census(*hosts)
	if err != nil {
		return err
	}
	after := objectsByStack()

	bySite := map[string]int64{}
	var total int64
	for stk, n := range after {
		n -= before[stk]
		name := site(stk)
		// The census's own bookkeeping: package main in the command, its
		// import path under go test.
		if n <= 0 || strings.HasPrefix(name, "main.") || strings.HasPrefix(name, "repro/cmd/alloccensus.") {
			continue
		}
		bySite[name] += n
		total += n
	}
	type row struct {
		name string
		n    int64
	}
	rows := make([]row, 0, len(bySite))
	for name, n := range bySite {
		rows = append(rows, row{name, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].name < rows[j].name
	})
	reqs := float64(requests)
	fmt.Fprintf(w, "%d %ss %s: %.2f allocations a %s at %d sites\n",
		requests, unit, what, float64(total)/reqs, unit, len(bySite))
	for _, r := range rows {
		fmt.Fprintf(w, "%8.2f  %s\n", float64(r.n)/reqs, r.name)
	}
	return nil
}

// faninConfig is the fan-in's testbed, BenchmarkWallclockFanIn10k's.
var faninConfig = lab.Config{Link: lab.LinkATM, Fabric: lab.FabricFatTree, Seed: 1994, HashPCBs: true}

// fanIn runs the served fan-in on hosts hosts and returns its requests.
func fanIn(hosts int) (int, string, error) {
	gen := workload.FanIn{Size: 200, Requests: 1, Stagger: 5000 * sim.Microsecond, Stats: stats.Config{Streaming: true}}
	c, err := lab.NewCluster(faninConfig, hosts, 1)
	if err != nil {
		return 0, "", err
	}
	res, err := workload.RunSharded(gen, c)
	if err != nil {
		return 0, "", err
	}
	if res.Requests != hosts-1 || res.Errors != 0 {
		return 0, "", fmt.Errorf("%d of %d requests, %d errors", res.Requests, hosts-1, res.Errors)
	}
	return res.Requests, fmt.Sprintf("on a %d-host fat tree", hosts), nil
}

// idle builds the fan-in's topology on hosts hosts and runs its loop until
// every service process has parked, and returns its hosts.
func idle(hosts int) (int, string, error) {
	c, err := lab.NewCluster(faninConfig, hosts, 1)
	if err != nil {
		return 0, "", err
	}
	c.Lab.Env.Run()
	return hosts, fmt.Sprintf("of an idle %d-host fat tree", hosts), nil
}

// loaded runs one replica of the loaded grid on a hosts-host hub and
// returns its requests. The traffic constants are the benchmark's.
func loaded(hosts int) (int, string, error) {
	const requests = 32
	var trials []runner.WorkloadTrial
	for _, tr := range []string{workload.TransportTCP, workload.TransportRUDP} {
		for _, kind := range []lab.QdiscKind{lab.QdiscDropTail, lab.QdiscRED, lab.QdiscDRR} {
			cross := workload.CrossTraffic{Flows: 2, MinBytes: 32768}
			trials = append(trials, runner.WorkloadTrial{
				Label: tr + "/" + kind.String(),
				Hosts: hosts,
				Cfg: lab.Config{
					Link:        lab.LinkATM,
					Qdisc:       lab.QdiscConfig{Kind: kind, REDMinCells: 2, REDMaxCells: 256, REDMaxP: 0.5},
					BurstLoss:   sim.GEParams{PGoodBad: 0.002, PBadGood: 0.2, LossBad: 0.5},
					ReorderRate: 0.0005, ReorderDepth: 2,
				},
				Gen: workload.FanIn{Size: 200, Requests: requests, Warmup: 1, Transport: tr, Cross: &cross},
			})
		}
	}
	outs, err := runner.RunWorkloadSweep(context.Background(), trials, runner.Options{Workers: 1, BaseSeed: 1994})
	if err != nil {
		return 0, "", err
	}
	total := 0
	for _, o := range outs {
		if want := (hosts - 1) * requests; o.Error != "" || o.Requests != want || o.Errors != 0 {
			return 0, "", fmt.Errorf("%s: %d of %d requests, %d errors %s", o.Label, o.Requests, want, o.Errors, o.Error)
		}
		total += o.Requests
	}
	return total, fmt.Sprintf("in %d loaded trials on a %d-host hub", len(trials), hosts), nil
}

// echo runs two replicas of echo-small's grid on the two-host pair and
// returns its round trips. The grid is the benchmark's at seed 1994:
// replica 0 at the paper's sizes, replica 1 a seed-derived 0-3 bytes
// larger.
func echo(int) (int, string, error) {
	const reps, iters, seed = 2, 250, 1994
	var trials []runner.EchoTrial
	for r := 0; r < reps; r++ {
		d := 0
		if r > 0 {
			d = int(runner.SeedFor(seed, 1<<20+r) % 4)
		}
		sizes := []int{4 + d, 20 + d, 80 + d, 200 + d}
		g := runner.Grid{
			Links:  []lab.LinkKind{lab.LinkATM, lab.LinkEther},
			NoPred: []bool{false, true},
			Sizes:  sizes, Iterations: iters, Warmup: 8,
		}
		trials = append(trials, g.Trials()...)
		for _, s := range sizes {
			trials = append(trials, runner.EchoTrial{Label: fmt.Sprintf("atm/udp/%dB", s),
				Cfg: lab.Config{Link: lab.LinkATM}, Size: s, Iterations: iters, Warmup: 8, UDP: true})
		}
	}
	for i := range trials {
		trials[i].Cfg.CheckLeaks = true
	}
	outs, err := runner.RunEchoSweep(context.Background(), trials, runner.Options{Workers: 1, BaseSeed: seed})
	if err != nil {
		return 0, "", err
	}
	total := 0
	for _, o := range outs {
		if o.Error != "" || o.N != iters || o.CorruptEchoes != 0 {
			return 0, "", fmt.Errorf("%s: %d of %d round trips, %d corrupt %s", o.Label, o.N, iters, o.CorruptEchoes, o.Error)
		}
		total += o.N
	}
	return total, fmt.Sprintf("in %d echo trials (%d replicas of echo-small's grid)", len(trials), reps), nil
}

// objectsByStack returns the heap objects allocated so far per call
// stack. The runtime publishes a cycle's allocations to the profile only
// once a collection has completed after them, hence the two.
func objectsByStack() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+64)
	}
	out := make(map[[32]uintptr]int64, len(recs))
	for i := range recs {
		out[recs[i].Stack0] += recs[i].AllocObjects
	}
	return out
}

// site names the function that allocated: the innermost frame outside
// the runtime and its internal packages (a map grows inside
// internal/runtime/maps), with the module's package prefix dropped.
func site(stk [32]uintptr) string {
	n := 0
	for n < len(stk) && stk[n] != 0 {
		n++
	}
	frames := runtime.CallersFrames(stk[:n])
	leaf := ""
	for {
		f, more := frames.Next()
		if leaf == "" {
			leaf = f.Function
		}
		if !strings.HasPrefix(f.Function, "runtime.") && !strings.HasPrefix(f.Function, "internal/") {
			return strings.TrimPrefix(f.Function, "repro/internal/")
		}
		if !more {
			return leaf
		}
	}
}
