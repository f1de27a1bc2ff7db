// Command alloccensus says where the served fan-in allocates: it runs
// BenchmarkWallclockFanIn10k's configuration — a fat tree, one staggered
// 200-byte request per client, streaming statistics, construction
// included — on -hosts hosts with every allocation sampled
// (runtime.MemProfileRate = 1), and prints each allocating site (the
// first frame outside the runtime, inlined frames expanded, as pprof's
// flat column names it) as heap objects per request, most first. It is
// the census behind docs/PERFORMANCE.md items 17 and 19; `make
// alloc-census` runs it at 1,001 hosts.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"

	"repro/internal/lab"
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
	hosts := fs.Int("hosts", 1001, "hosts on the fat tree: host 0 serves, every other makes one request")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	if *hosts < 2 {
		return fmt.Errorf("-hosts must be at least 2, have %d", *hosts)
	}
	if runtime.MemProfileRate != 1 {
		return fmt.Errorf("the census needs runtime.MemProfileRate = 1, have %d", runtime.MemProfileRate)
	}

	before := objectsByStack()
	gen := workload.FanIn{Size: 200, Requests: 1, Stagger: 5000 * sim.Microsecond, Stats: stats.Config{Streaming: true}}
	cfg := lab.Config{Link: lab.LinkATM, Fabric: lab.FabricFatTree, Seed: 1994, HashPCBs: true}
	c, err := lab.NewCluster(cfg, *hosts, 1)
	if err != nil {
		return err
	}
	res, err := workload.RunSharded(gen, c)
	if err != nil {
		return err
	}
	if res.Requests != *hosts-1 || res.Errors != 0 {
		return fmt.Errorf("%d of %d requests, %d errors", res.Requests, *hosts-1, res.Errors)
	}
	after := objectsByStack()
	runtime.KeepAlive(c)

	bySite := map[string]int64{}
	var total int64
	for stk, n := range after {
		n -= before[stk]
		name := site(stk)
		if n <= 0 || strings.HasPrefix(name, "main.") { // the census's own bookkeeping
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
	reqs := float64(res.Requests)
	fmt.Fprintf(w, "%d requests on a %d-host fat tree: %.2f allocations a request at %d sites\n",
		res.Requests, *hosts, float64(total)/reqs, len(bySite))
	for _, r := range rows {
		fmt.Fprintf(w, "%8.2f  %s\n", float64(r.n)/reqs, r.name)
	}
	return nil
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
