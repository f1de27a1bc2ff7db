// Command alloccensus says where a workload allocates: it runs one of
// four shapes with every allocation sampled (runtime.MemProfileRate = 1)
// and prints each allocating site (the first frame outside the runtime,
// inlined frames expanded, as pprof's flat column names it) with the heap
// objects and bytes it allocated, under the run's MemStats.Mallocs total.
//
//   - -shape fanin is the fanin-10k benchmark's configuration — a fat
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
//     no traffic: what a topology costs to exist.
//
// The profile misses tiny (≤ 16 B, pointer-free) allocations the runtime
// packs into a shared block; the Mallocs total counts them. At the
// default -hosts, testdata/<shape>.golden pins each shape's census
// (TestCensusGoldens); `go test ./cmd/alloccensus -update` rewrites the
// goldens. `make alloc-census` prints all four.
package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"repro/cmd/internal/cli"
	"repro/internal/lab"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() { flags.Main(run) }

var shapeWords = cli.Modes{"fanin", "loaded", "echo", "idle"}

var flags = cli.Table{Name: "alloccensus", Rows: []cli.Row{
	{Name: "shape", Def: "fanin", Usage: "fanin: the served fan-in; loaded: one replica of loaded-grid's transport x qdisc trials; echo: two replicas of echo-small's grid; idle: the fan-in's fat tree, built and left idle", Words: shapeWords},
	{Name: "hosts", Def: 0, Usage: "fanin, loaded and idle: host 0 serves, every other makes requests (0: 1001 for fanin and idle, 33 for loaded); echo runs on the two-host pair",
		Min: 3, Max: 1<<16 - 32, Zero: true, Why: "each shape it sizes needs a switch, and host i is reached on VCI 32+i, 16 bits", On: shapeWords.On("fanin", "loaded", "idle")},
}, Mode: shapeWords.Of("shape")}

func run(args []string, w io.Writer) error {
	f, err := flags.Parse(args, w)
	if f == nil {
		return err
	}
	c, err := take(f.String("shape"), f.Int("hosts"))
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, c.String())
	return err
}

// census is one shape's allocations: what ran, the run's MemStats.Mallocs
// delta, and the objects and bytes each site allocated.
type census struct {
	what    string
	mallocs int64
	sites   map[string]count
}

type count struct{ objects, bytes int64 }

// shapes are the workloads the census runs. Each returns its requests
// (round trips for echo, hosts for idle); what formats them and the hosts.
var shapes = map[string]struct {
	run   func(hosts int) (int, error)
	hosts int // the default -hosts; echo always runs on the two-host pair
	what  string
}{
	"fanin":  {fanIn, 1001, "%d requests on a %d-host fat tree"},
	"idle":   {idle, 1001, "%d hosts of an idle %d-host fat tree"},
	"loaded": {loaded, 33, "%d requests in 6 loaded trials on a %d-host hub"},
	"echo":   {echo, 2, "%d round trips in 40 echo trials on the %d-host pair (2 replicas of echo-small's grid)"},
}

// take runs shape on hosts hosts (0: the shape's default) and returns its
// census.
func take(shape string, hosts int) (census, error) {
	s := shapes[shape]
	if hosts == 0 {
		hosts = s.hosts
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	// A first run is not counted: what a process allocates once (a lazily
	// built table, a pool's first fill) is not the shape's. The counted run
	// has one P and no collection, so the runtime's per-P caches (the tiny
	// allocator's block, sudogs, free goroutines) start alike every run.
	if _, err := s.run(hosts); err != nil {
		return census{}, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before := profile()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	n, err := s.run(hosts)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return census{}, err
	}
	after := profile()

	c := census{what: shape + ": " + fmt.Sprintf(s.what, n, hosts), mallocs: int64(m1.Mallocs - m0.Mallocs), sites: map[string]count{}}
	for stk, n := range after {
		n.objects -= before[stk].objects
		n.bytes -= before[stk].bytes
		name := site(stk)
		// The census's own bookkeeping: package main in the command, its
		// import path under go test.
		if n.objects <= 0 || name == "" || strings.HasPrefix(name, "main.") || strings.HasPrefix(name, "repro/cmd/alloccensus.") {
			continue
		}
		s := c.sites[name]
		c.sites[name] = count{s.objects + n.objects, s.bytes + n.bytes}
	}
	return c, nil
}

// String renders the census: its shape line, the Mallocs total, and a
// line a site — objects, bytes, name.
func (c census) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nmallocs %d\n", c.what, c.mallocs)
	for _, name := range c.names() {
		fmt.Fprintf(&b, "%8d %10d  %s\n", c.sites[name].objects, c.sites[name].bytes, name)
	}
	return b.String()
}

// names returns the census's sites in order, so that a golden's diff
// moves only the lines whose counts moved.
func (c census) names() []string {
	names := make([]string, 0, len(c.sites))
	for name := range c.sites {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// faninConfig is the fan-in's testbed, the fanin-10k benchmark's.
var faninConfig = lab.Config{Link: lab.LinkATM, Fabric: lab.FabricFatTree, Seed: 1994, HashPCBs: true}

// fanIn runs the served fan-in on hosts hosts.
func fanIn(hosts int) (int, error) {
	gen := workload.FanIn{Size: 200, Requests: 1, Stagger: 5000 * sim.Microsecond, Stats: stats.Config{Streaming: true}}
	c, err := lab.NewCluster(faninConfig, hosts, 1)
	if err != nil {
		return 0, err
	}
	res, err := gen.Run(c.Lab)
	if err != nil {
		return 0, err
	}
	if res.Requests != hosts-1 || res.Errors != 0 {
		return 0, fmt.Errorf("%d of %d requests, %d errors", res.Requests, hosts-1, res.Errors)
	}
	if n := c.Lab.Env.Arena().Outstanding(); n != 0 {
		return 0, fmt.Errorf("the served fan-in left %d arena buffers checked out", n)
	}
	return res.Requests, nil
}

// idle builds the fan-in's topology on hosts hosts and runs its loop until
// every service process has parked.
func idle(hosts int) (int, error) {
	c, err := lab.NewCluster(faninConfig, hosts, 1)
	if err != nil {
		return 0, err
	}
	c.Lab.Env.Run()
	return hosts, nil
}

// loaded runs one replica of the loaded grid on a hosts-host hub. The
// traffic constants are the benchmark's.
func loaded(hosts int) (int, error) {
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
		return 0, err
	}
	total := 0
	for _, o := range outs {
		if want := (hosts - 1) * requests; o.Error != "" || o.Requests != want || o.Errors != 0 {
			return 0, fmt.Errorf("%s: %d of %d requests, %d errors %s", o.Label, o.Requests, want, o.Errors, o.Error)
		}
		total += o.Requests
	}
	return total, nil
}

// echo runs two replicas of echo-small's grid on the two-host pair. The
// grid is the benchmark's at seed 1994: replica 0 at the paper's sizes,
// replica 1 a seed-derived 0-3 bytes larger.
func echo(int) (int, error) {
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
		return 0, err
	}
	total := 0
	for _, o := range outs {
		if o.Error != "" || o.N != iters || o.CorruptEchoes != 0 {
			return 0, fmt.Errorf("%s: %d of %d round trips, %d corrupt %s", o.Label, o.N, iters, o.CorruptEchoes, o.Error)
		}
		total += o.N
	}
	return total, nil
}

// profile returns the heap objects and bytes allocated so far per call
// stack. The runtime publishes a cycle's allocations to the profile only
// once a collection has completed after them, hence the two.
func profile() map[[32]uintptr]count {
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
	out := make(map[[32]uintptr]count, len(recs))
	for i := range recs {
		c := out[recs[i].Stack0]
		out[recs[i].Stack0] = count{c.objects + recs[i].AllocObjects, c.bytes + recs[i].AllocBytes}
	}
	return out
}

// site names the function that allocated: the innermost frame outside
// the runtime and its internal packages (a map grows inside
// internal/runtime/maps), with the module's package prefix dropped — or
// "" when the runtime allocated on its own account, as it does for
// goroutines, timers and profiling (no frame outside it) and for what
// runtimeOwned names: allocations that come and go from run to run.
func site(stk [32]uintptr) string {
	n := 0
	for n < len(stk) && stk[n] != 0 {
		n++
	}
	frames := runtime.CallersFrames(stk[:n])
	for {
		f, more := frames.Next()
		if runtimeOwned[f.Function] {
			return ""
		}
		if !strings.HasPrefix(f.Function, "runtime.") && !strings.HasPrefix(f.Function, "internal/") {
			return strings.TrimPrefix(f.Function, "repro/internal/")
		}
		if !more {
			return ""
		}
	}
}

// runtimeOwned are the runtime functions that allocate for the runtime's
// own bookkeeping whatever called them — a blocked goroutine's wait
// record, a type switch's or assertion's cache. How many a run makes
// depends on per-P caches and a random draw, not on the workload.
var runtimeOwned = map[string]bool{"runtime.acquireSudog": true, "runtime.typeAssert": true, "runtime.interfaceSwitch": true}
