// Command pkttrace runs one traced workload on the simulated testbed
// and emits its per-packet latency attribution: every layer crossing of
// every TCP segment (socket enqueue, tcp_output, ip_output, driver,
// wire, and the receive path back up), joined by on-wire identity
// (connection 4-tuple plus sequence number) into per-packet span trees.
//
// Two output formats, both JSON and both deterministic at a fixed seed:
//
//   - -format spans (the default): the reconstructed timelines — one
//     record per packet with its events and span tree, plus any
//     unattributed events.
//   - -format chrome: Chrome trace_event format; load the file in
//     chrome://tracing or https://ui.perfetto.dev for flamegraph-style
//     inspection, one process lane per host.
//
// Examples:
//
//	pkttrace -size 1400                       # one traced echo, span JSON
//	pkttrace -format chrome -o echo.json      # the same, for chrome://tracing
//	pkttrace -workload fanin -hosts 5         # 4 clients -> 1 server
//	pkttrace -workload churn -link ether      # open/close storms, Ethernet
//
// See docs/METHODOLOGY.md for how these traces relate to the paper's
// measurement windows and docs/ARCHITECTURE.md for the trace pipeline.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/cmd/internal/cli"
	"repro/internal/lab"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() { flags.Main(run) }

var workloads = cli.Modes{"echo", "fanin", "churn", "bulk"}

// The generators read a count below 1 (a size below 0) as "use my
// default", so the rows refuse such a value rather than run something
// else. Every packet of the run is kept in memory, hence the bounds.
var flags = cli.Table{Name: "pkttrace", Rows: []cli.Row{
	{Name: "workload", Def: "echo", Usage: "workload: echo, fanin, churn, or bulk", Words: workloads},
	{Name: "hosts", Def: 0, Usage: "topology size (0 = 2 for echo, 5 otherwise)", Min: 2, Max: 1024, Zero: true, Why: traceWhy},
	{Name: "size", Def: 0, Usage: "payload bytes per operation (0 = workload default)", Max: 1 << 20, Why: traceWhy, On: workloads.On("echo", "fanin", "churn")},
	{Name: "iters", Def: 4, Usage: "echo: measured iterations; fanin: requests per client", Min: 1, Max: 1000, Why: traceWhy, On: workloads.On("echo", "fanin")},
	{Name: "warmup", Def: 2, Usage: "echo: warm-up iterations, left out of the reported window", Min: 1, Max: 1000, Why: traceWhy, On: workloads.On("echo")},
	{Name: "conns", Def: 3, Usage: "churn: connection cycles per client", Min: 1, Max: 1000, Why: traceWhy, On: workloads.On("churn")},
	{Name: "bytes", Def: 32768, Usage: "bulk: bytes streamed per client", Min: 1, Max: 1 << 20, Why: traceWhy, On: workloads.On("bulk")},
	{Name: "link", Def: "atm", Usage: "link type: atm or ether", Words: []string{"atm", "ether"}},
	{Name: "seed", Def: uint64(0), Usage: "simulation RNG seed (0 = default)", Max: cli.Inf},
	{Name: "format", Def: "spans", Usage: "output format: spans or chrome", Words: []string{"spans", "chrome"}},
	{Name: "o", Def: "", Usage: "write the trace to this file instead of stdout"},
}, Mode: workloads.Of("workload")}

const traceWhy = "the trace holds every packet in memory"

func run(args []string, w io.Writer) error {
	f, err := flags.Parse(args, w)
	if f == nil {
		return err
	}
	lk, _ := lab.ParseLinkKind(f.String("link")) // the row admits only its words
	cfg := lab.Config{Link: lk, PacketTrace: true, Seed: f.Uint64("seed")}
	size, iters := f.Int("size"), f.Int("iters")
	var gen workload.Generator
	n := f.Int("hosts")
	switch f.String("workload") {
	case "echo":
		gen = workload.Echo{Size: size, Iterations: iters, Warmup: f.Int("warmup")}
		if n == 0 {
			n = 2
		}
	case "fanin":
		gen = workload.FanIn{Size: size, Requests: iters, Warmup: 1}
	case "churn":
		gen = workload.Churn{Conns: f.Int("conns"), Size: size}
	case "bulk":
		gen = workload.Bulk{Bytes: f.Int("bytes")}
	}
	if n == 0 {
		n = 5
	}
	res, err := gen.Run(lab.NewTopology(cfg, n))
	if err != nil {
		return err
	}

	var blob []byte
	switch f.String("format") {
	case "spans":
		blob, err = json.MarshalIndent(trace.BuildTimelines(res.Events), "", " ")
	case "chrome":
		blob, err = trace.ChromeTrace(res.Events)
	}
	if err != nil {
		return err
	}
	if out := f.String("o"); out != "" {
		if err := os.WriteFile(out, append(blob, '\n'), 0o644); err != nil {
			return fmt.Errorf("-o: %w", err)
		}
		return nil
	}
	_, err = fmt.Fprintln(w, string(blob))
	return err
}
