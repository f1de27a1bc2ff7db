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
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lab"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pkttrace:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("pkttrace", flag.ContinueOnError)
	var (
		wl     = fs.String("workload", "echo", "workload: echo, fanin, churn, or bulk")
		hosts  = fs.Int("hosts", 0, "topology size (0 = 2 for echo, 5 otherwise)")
		size   = fs.Int("size", 0, "payload bytes per operation (0 = workload default)")
		iters  = fs.Int("iters", 4, "echo: measured iterations; fanin: requests per client")
		warmup = fs.Int("warmup", 2, "echo: untraced warm-up iterations")
		conns  = fs.Int("conns", 3, "churn: connection cycles per client")
		bytesN = fs.Int("bytes", 32768, "bulk: bytes streamed per client")
		link   = fs.String("link", "atm", "link type: atm or ether")
		seed   = fs.Uint64("seed", 0, "simulation RNG seed (0 = default)")
		format = fs.String("format", "spans", "output format: spans or chrome")
		out    = fs.String("o", "", "write the trace to this file instead of stdout")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}

	lk, err := lab.ParseLinkKind(*link)
	if err != nil {
		return fmt.Errorf("-link: %w", err)
	}
	cfg := lab.Config{Link: lk, PacketTrace: true, Seed: *seed}
	if *format != "spans" && *format != "chrome" {
		return fmt.Errorf("unknown format %q (want spans or chrome)", *format)
	}

	var gen workload.Generator
	n := *hosts
	switch *wl {
	case "echo":
		gen = workload.Echo{Size: *size, Iterations: *iters, Warmup: *warmup}
		if n == 0 {
			n = 2
		}
	case "fanin":
		gen = workload.FanIn{Size: *size, Requests: *iters, Warmup: 1}
		if n == 0 {
			n = 5
		}
	case "churn":
		gen = workload.Churn{Conns: *conns, Size: *size}
		if n == 0 {
			n = 5
		}
	case "bulk":
		gen = workload.Bulk{Bytes: *bytesN}
		if n == 0 {
			n = 5
		}
	default:
		return fmt.Errorf("unknown workload %q (want echo, fanin, churn, or bulk)", *wl)
	}
	if n < 2 {
		return fmt.Errorf("-hosts %d too small (need a server and at least one client)", n)
	}

	l := lab.NewTopology(cfg, n)
	res, err := gen.Run(l)
	if err != nil {
		return err
	}

	var blob []byte
	switch *format {
	case "spans":
		blob, err = json.MarshalIndent(trace.BuildTimelines(res.Events), "", " ")
	case "chrome":
		blob, err = trace.ChromeTrace(res.Events)
	}
	if err != nil {
		return err
	}
	if *out != "" {
		return os.WriteFile(*out, append(blob, '\n'), 0o644)
	}
	_, err = fmt.Fprintln(w, string(blob))
	return err
}
