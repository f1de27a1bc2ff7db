// Command load drives N-host topologies with the pluggable workload
// engine: request/response fan-in (M clients hammering one server),
// connection churn (open/close storms exercising real PCB insert and
// delete), one-way bulk transfer, and the paper's echo benchmark. Trials
// shard across the sweep-engine worker pool with grid-position-derived
// seeds, so output is bit-identical at any -parallel level.
//
// Examples:
//
//	load -workload fanin -hosts 17 -reqs 20       # 16 clients -> 1 server
//	load -workload fanin -hosts 17 -compare       # list vs hash PCBs
//	load -workload churn -hosts 9 -conns 25       # open/close storms
//	load -workload bulk -hosts 5 -bytes 262144    # concurrent bulk fan-in
//	load -workload fanin -trials 8 -loss 0.0005 -parallel 4  # repetitions under loss
//	load -workload fanin -transport rudp -qdisc red      # reliable-UDP rival transport
//	load -workload loaded -burstloss 0.002 -crosstraffic 2   # TCP vs rUDP under load
//	load -workload faults -hosts 65 -crashat 500 -downtime 1000  # crash-recovery study
//	load -workload fanin -faults 2                       # seeded link flaps
package main

import (
	"context"
	"fmt"
	"io"

	"repro/cmd/internal/cli"
	"repro/internal/core"
	"repro/internal/lab"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// scaleHosts is where the harness flips from paper-scale to large-scale
// defaults: above it, -stream auto selects constant-memory streaming
// statistics and -stagger auto spaces client starts, because a 10,000-way
// simultaneous SYN storm against one listener mostly measures
// retransmission backoff, and retaining every latency mostly measures
// the host's RAM.
const scaleHosts = 1024

// fanInWarmup is the unmeasured per-client warmup requests cmd/load
// configures for the fan-in workload.
const fanInWarmup = 2

// autoStaggerFor is the per-client start spacing -stagger auto applies
// past scaleHosts. The spacing must exceed one client's total service
// time on the server's single simulated DECstation CPU — measured ~1ms
// to accept and close a connection plus ~1.5ms per request — or the
// server falls permanently behind, SYN retransmissions pile onto the
// queue, and the run collapses into an hours-long simulated
// retransmission storm. Spacing by the full per-client service time
// keeps the server below saturation at any -hosts; a 10,000-client
// single-request run holds a flat ~2ms per-request latency.
func autoStaggerFor(reqs int) sim.Time {
	return sim.Time(1000+1500*(reqs+fanInWarmup)) * sim.Microsecond
}

func main() { flags.Main(run) }

// workloads are the -workload values, the command's modes; sweep reads
// its trials through the sweep engine.
var (
	workloads = cli.Modes{"fanin", "churn", "bulk", "echo", "loaded", "faults"}
	sweep     = workloads.On("fanin", "churn", "bulk", "echo")
)

// maxHosts is the most hosts a fabric names: host i is reached on VCI
// 32+i, a 16-bit field.
const maxHosts = 1<<16 - 32

// flags has a row per flag: which workloads read it and its domain. What
// its lab.Config field applies to — the link, a switch — is
// lab.Config.Validate's to say. The bounds on counts keep a run's memory
// and time finite; those on durations keep sim.Time from wrapping.
var flags = cli.Table{Name: "load", Rows: []cli.Row{
	{Name: "workload", Def: "fanin", Usage: "workload: fanin, churn, bulk, echo, loaded, or faults", Words: workloads},
	{Name: "hosts", Def: 5, Usage: "topology size: one server plus hosts-1 clients", Min: 2, Max: maxHosts, Why: "host i is reached on VCI 32+i, 16 bits, and a served host holds about 4 KB", Field: "nHosts"},
	{Name: "conns", Def: 10, Usage: "churn: connection cycles per client", Min: 1, Max: 100_000, Why: timeWhy, On: workloads.On("churn")},
	{Name: "reqs", Def: 20, Usage: "fanin: requests per client; echo: iterations", Min: 1, Max: 100_000, Why: "exact statistics keep every latency", On: workloads.On("fanin", "echo", "loaded", "faults")},
	{Name: "size", Def: 0, Usage: "payload bytes per operation (0 = workload default)", Max: 1 << 20, Why: "each end holds a message whole", On: workloads.On("fanin", "churn", "echo", "loaded", "faults")},
	{Name: "bytes", Def: 65536, Usage: "bulk: bytes streamed per client", Min: 1, Max: 1 << 30, Why: timeWhy, On: workloads.On("bulk")},
	{Name: "link", Def: "atm", Usage: "link type: atm or ether", Words: []string{"atm", "ether"}, On: sweep, Field: "Link"},
	{Name: "loss", Def: 0.0, Usage: "independent loss probability of each ATM cell or Ethernet frame (what makes -trials vary)", Max: 1, On: sweep, Field: "BurstLoss.LossGood"},
	{Name: "hashpcb", Def: false, Usage: "use the hash-table PCB organization", On: sweep, Field: "HashPCBs"},
	{Name: "compare", Def: false, Usage: "run every trial under both PCB organizations", On: sweep},
	{Name: "trials", Def: 1, Usage: "seeded repetitions of the workload", Min: 1, Max: 1000, Why: "every trial's outcome is kept for the report", On: sweep},
	{Name: "parallel", Def: 0, Usage: "sweep workers (0 = GOMAXPROCS, 1 = serial)", Max: cli.Inf},
	{Name: "seed", Def: uint64(0), Usage: "base seed for per-trial RNG derivation (0 with -trials > 1 uses base 1)", Max: cli.Inf},
	{Name: "json", Def: false, Usage: "emit results as JSON instead of text"},
	{Name: "stream", Def: "auto", Usage: "fanin/churn latency statistics: on (constant-memory P²+reservoir), off (exact), or auto (on past -hosts 1024)", Words: []string{"on", "off", "auto"}, On: workloads.On("fanin", "churn")},
	{Name: "stagger", Def: -1, Usage: "fanin: per-client start stagger in microseconds (-1 = auto: the per-client service estimate past -hosts 1024, else 0)", Min: -1, Max: 10_000_000, Why: "client i starts i staggers in, which must fit sim.Time", On: workloads.On("fanin")},
	{Name: "fabric", Def: "hub", Usage: "ATM switch fabric: hub (one switch) or fattree (leaf switches trunked to a spine)", Words: []string{"hub", "fattree"}, On: sweep, Field: "Fabric"},
	{Name: "leafports", Def: 0, Usage: "fattree: hosts per leaf switch (0 = default 64)", Max: maxHosts, Why: "a leaf holds at most every host", On: sweep, Field: "LeafPorts"},
	{Name: "transport", Def: workload.TransportTCP, Usage: "fanin: transport under test, tcp or rudp (reliable UDP)", Words: []string{workload.TransportTCP, workload.TransportRUDP}, On: workloads.On("fanin")},
	{Name: "qdisc", Def: "none", Usage: "ATM egress queue discipline: none, droptail, red, or drr", Words: []string{"none", "droptail", "red", "drr"}, On: sweep | workloads.On("loaded"), Field: "Qdisc"},
	{Name: "burstloss", Def: 0.0, Usage: "Gilbert-Elliott burst loss: probability of entering the bad state per cell (0 = off)", Max: 1, On: sweep | workloads.On("loaded"), Field: "BurstLoss"},
	{Name: "crosstraffic", Def: 0, Usage: "fanin/loaded: background bounded-Pareto transfer flows contending with the workload", Max: 1000, Why: timeWhy, On: workloads.On("fanin", "loaded")},
	{Name: "faults", Def: 0, Usage: "fanin: seeded link flaps per client host during the run (0 = none)", Max: 1000, Why: timeWhy, On: workloads.On("fanin")},
	{Name: "crashat", Def: 0, Usage: "faults: server crash time in milliseconds (0 = default 500)", Max: 3_600_000, Why: "an hour of simulated time, far inside sim.Time", On: workloads.On("faults")},
	{Name: "downtime", Def: 0, Usage: "faults: crash-to-restart gap in milliseconds (0 = default 1000)", Max: 5000, Why: "a client gives up after 16 failed reconnects, about 6 s", On: workloads.On("faults")},
}, Mode: workloads.Of("workload")}

const timeWhy = "run time grows with it"

func run(args []string, w io.Writer) error {
	f, err := flags.Parse(args, w)
	if f == nil {
		return err
	}
	var (
		wl, transp        = f.String("workload"), f.String("transport")
		hosts, reqs, size = f.Int("hosts"), f.Int("reqs"), f.Int("size")
		parallel, trials  = f.Int("parallel"), f.Int("trials")
		crossN, faultsN   = f.Int("crosstraffic"), f.Int("faults")
		seed, jsonOut     = f.Uint64("seed"), f.Bool("json")
	)
	cfg := labConfig(f)
	lk := cfg.Link
	if err := flags.Config(cfg.Validate(hosts, 1)); err != nil {
		return err
	}
	// A reliable-UDP message rides one datagram: the loaded and fault
	// studies run rudp beside tcp, a fan-in when -transport says so.
	if wl == "loaded" || wl == "faults" || transp == workload.TransportRUDP {
		if limit := workload.RUDPMaxMessage(lab.MaxMTU(lk)); size > limit {
			return fmt.Errorf("-size %d: rudp carries at most %d bytes a message on %v", size, limit, lk)
		}
	}
	stream := f.String("stream")
	stCfg := stats.Config{Streaming: stream == "on" || stream == "auto" && hosts > scaleHosts}

	// The loaded and fault studies are self-contained: fan-in under the
	// load knobs, or with a mid-run server crash, once per rival transport
	// on the hub ATM fabric, rendered as a comparison.
	switch wl {
	case "loaded":
		res, err := core.RunLoadedStudy(core.LoadedOptions{
			Hosts: hosts, Requests: reqs, Size: size,
			Qdisc:      cfg.Qdisc,
			BurstLoss:  cfg.BurstLoss,
			CrossFlows: crossN,
			Parallel:   parallel,
			BaseSeed:   seed,
		})
		if err != nil {
			return err
		}
		return cli.Emit(w, jsonOut, res, res.Render)
	case "faults":
		res, err := core.RunFaultStudy(core.FaultOptions{
			Hosts: hosts, Requests: reqs, Size: size,
			CrashAt:  sim.Time(f.Int("crashat")) * sim.Millisecond,
			Downtime: sim.Time(f.Int("downtime")) * sim.Millisecond,
			Parallel: parallel,
			BaseSeed: seed,
		})
		if err != nil {
			return err
		}
		return cli.Emit(w, jsonOut, res, res.Render)
	}

	stag := autoStaggerFor(reqs)
	switch {
	case f.Int("stagger") >= 0:
		stag = sim.Time(f.Int("stagger")) * sim.Microsecond
	case hosts <= scaleHosts:
		stag = 0
	}

	var gen workload.Generator
	switch wl {
	case "fanin":
		g := workload.FanIn{Size: size, Requests: reqs, Warmup: fanInWarmup,
			Stats: stCfg, Stagger: stag, Transport: transp}
		if crossN > 0 {
			g.Cross = &workload.CrossTraffic{Flows: crossN}
		}
		if faultsN > 0 {
			// The flap schedule derives from the base seed and host
			// indices alone (per-entity splitmix64 streams).
			clients := make([]int, 0, hosts-1)
			for i := 1; i < hosts; i++ {
				clients = append(clients, i)
			}
			g.Faults = sim.LinkFlaps(seed, clients, faultsN, flapWindow, flapDowntime)
		}
		gen = g
	case "churn":
		gen = workload.Churn{Conns: f.Int("conns"), Size: size, Stats: stCfg}
	case "bulk":
		gen = workload.Bulk{Bytes: f.Int("bytes")}
	case "echo":
		gen = workload.Echo{Size: size, Iterations: reqs}
	}

	orgs := []bool{f.Bool("hashpcb")}
	if f.Bool("compare") {
		orgs = []bool{false, true}
	}
	var ts []runner.WorkloadTrial
	for t := 0; t < trials; t++ {
		for _, h := range orgs {
			c := cfg
			c.HashPCBs = h
			org := "list"
			if h {
				org = "hash"
			}
			label := fmt.Sprintf("%s/%dc/%s", wl, hosts-1, org)
			if trials > 1 {
				label += fmt.Sprintf("/t%d", t)
			}
			ts = append(ts, runner.WorkloadTrial{Label: label, Cfg: c, Hosts: hosts, Gen: gen})
		}
	}

	// Without a base seed every trial's simulation would use the fixed
	// default seed and -trials would produce identical repetitions;
	// derive from base 1 so repetitions actually vary (still fully
	// deterministic).
	base := seed
	if base == 0 && trials > 1 {
		base = 1
	}
	outs, err := runner.RunWorkloadSweep(context.Background(), ts,
		runner.Options{Workers: parallel, BaseSeed: base})
	if err != nil {
		return err
	}
	for _, o := range outs {
		if o.Error != "" {
			return fmt.Errorf("trial %s: %s", o.Label, o.Error)
		}
	}
	return cli.Emit(w, jsonOut, outs, func() string {
		title := fmt.Sprintf("Workload %s: %d host(s), %d trial(s)", wl, hosts, len(ts))
		return runner.RenderWorkloadOutcomes(title, outs)
	})
}

// burstGE expands the one-knob burst-loss flag into the Gilbert–Elliott
// chain it configures: entering the bad state with the given per-cell
// probability, leaving it with mean burst length 5 cells, and losing
// half the cells while bad.
func burstGE(pGoodBad float64) sim.GEParams {
	if pGoodBad <= 0 {
		return sim.GEParams{}
	}
	return sim.GEParams{PGoodBad: pGoodBad, PBadGood: 0.2, LossBad: 0.5}
}

// labConfig is the testbed configuration the flags write: -loss is the
// loss chain's Good-state rate, -burstloss its way into the Bad state.
func labConfig(f *cli.Values) lab.Config {
	lk, _ := lab.ParseLinkKind(f.String("link"))
	qk, _ := lab.ParseQdiscKind(f.String("qdisc")) // the rows admit only their words
	cfg := lab.Config{Link: lk, HashPCBs: f.Bool("hashpcb"), LeafPorts: f.Int("leafports"),
		Qdisc: lab.QdiscConfig{Kind: qk}, BurstLoss: burstGE(f.Float("burstloss"))}
	cfg.BurstLoss.LossGood = f.Float("loss")
	if f.String("fabric") == "fattree" {
		cfg.Fabric = lab.FabricFatTree
	}
	return cfg
}

// flapWindow and flapDowntime shape the -faults link flaps: each flap's
// start is drawn over the window from the host's own seeded stream, and
// each outage is short enough that TCP rides it out on retransmission
// backoff instead of giving up.
const (
	flapWindow   = 20 * sim.Millisecond
	flapDowntime = 500 * sim.Microsecond
)
