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
//	load -workload fanin -hosts 17 -reqs 4 -shards 4     # host-sharded event loops
//	load -workload fanin -transport rudp -qdisc red      # reliable-UDP rival transport
//	load -workload loaded -burstloss 0.002 -crosstraffic 2   # TCP vs rUDP under load
//	load -workload faults -hosts 65 -crashat 500 -downtime 1000  # crash-recovery study
//	load -workload fanin -faults 2 -shards 4             # seeded link flaps, shard-safe
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

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

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "load:", err)
		os.Exit(1)
	}
}

// Workload sets: one bit per -workload value.
const (
	wFanIn = 1 << iota
	wChurn
	wBulk
	wEcho
	wLoaded
	wFaults
	wSweep = wFanIn | wChurn | wBulk | wEcho // trials through the sweep engine
	wAll   = wSweep | wLoaded | wFaults
)

var workloads = map[string]int{"fanin": wFanIn, "churn": wChurn, "bulk": wBulk,
	"echo": wEcho, "loaded": wLoaded, "faults": wFaults}

// flagRule says which workloads read one flag. A flag set on the command
// line where it has no effect is rejected, naming the flag, never
// dropped. What the flag's lab.Config field applies to — the link, a
// switch, one shard — is lab.Config.Validate's to say (see cfgFlag).
type flagRule struct {
	on  int     // the workloads that read it
	min float64 // numeric flags: the least value accepted
}

// flagRules has a row per flag, in the order run defines them. A flag
// without a row applies to no workload.
var flagRules = map[string]flagRule{
	"workload":     {on: wAll},
	"hosts":        {on: wAll, min: 2},
	"conns":        {on: wChurn, min: 1},
	"reqs":         {on: wFanIn | wEcho | wLoaded | wFaults, min: 1},
	"size":         {on: wAll &^ wBulk},
	"bytes":        {on: wBulk, min: 1},
	"link":         {on: wSweep},
	"loss":         {on: wSweep},
	"hashpcb":      {on: wSweep},
	"compare":      {on: wSweep},
	"trials":       {on: wSweep, min: 1},
	"parallel":     {on: wAll},
	"seed":         {on: wAll},
	"json":         {on: wAll},
	"stream":       {on: wFanIn | wChurn},
	"stagger":      {on: wFanIn, min: -1},
	"fabric":       {on: wSweep},
	"leafports":    {on: wSweep},
	"shards":       {on: wAll &^ wFaults},
	"transport":    {on: wFanIn},
	"qdisc":        {on: wSweep | wLoaded},
	"burstloss":    {on: wSweep | wLoaded},
	"crosstraffic": {on: wFanIn | wLoaded},
	"faults":       {on: wFanIn},
	"crashat":      {on: wFaults},
	"downtime":     {on: wFaults},
}

// cfgFlag names the flag that wrote the lab.Config field (or Validate
// argument) a lab.ConfigError refuses, so the rejection names what the
// user typed.
func cfgFlag(field string) string {
	group, _, _ := strings.Cut(field, ".") // "Qdisc.Kind" is -qdisc's
	return map[string]string{"Link": "link", "HashPCBs": "hashpcb", "CellLossRate": "loss",
		"BurstLoss": "burstloss", "Qdisc": "qdisc", "Fabric": "fabric", "LeafPorts": "leafports",
		"nHosts": "hosts", "shards": "shards"}[group]
}

// checkFlags walks the flags set on the command line against flagRules
// and returns the first rejection.
func checkFlags(fs *flag.FlagSet, wl string) error {
	on, ok := workloads[wl]
	if !ok {
		return fmt.Errorf("unknown -workload %q (want fanin, churn, bulk, echo, loaded, or faults)", wl)
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err != nil {
			return
		}
		r := flagRules[f.Name]
		var v float64
		switch x := f.Value.(flag.Getter).Get().(type) {
		case int:
			v = float64(x)
		case int64:
			v = float64(x)
		case float64:
			v = x
		default: // not numeric: any value is in range
			v = r.min
		}
		switch {
		case !(v >= r.min): // written so that NaN fails
			err = fmt.Errorf("-%s %v out of range (want >= %v)", f.Name, v, r.min)
		case r.on&on == 0:
			err = fmt.Errorf("-%s does not apply to -workload %s", f.Name, wl)
		}
	})
	return err
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("load", flag.ContinueOnError)
	var (
		wl       = fs.String("workload", "fanin", "workload: fanin, churn, bulk, echo, loaded, or faults")
		hosts    = fs.Int("hosts", 5, "topology size: one server plus hosts-1 clients")
		conns    = fs.Int("conns", 10, "churn: connection cycles per client")
		reqs     = fs.Int("reqs", 20, "fanin: requests per client; echo: iterations")
		size     = fs.Int("size", 0, "payload bytes per operation (0 = workload default)")
		bytesN   = fs.Int("bytes", 65536, "bulk: bytes streamed per client")
		link     = fs.String("link", "atm", "link type: atm or ether")
		loss     = fs.Float64("loss", 0, "ATM cell loss probability (what makes -trials vary)")
		hash     = fs.Bool("hashpcb", false, "use the hash-table PCB organization")
		compare  = fs.Bool("compare", false, "run every trial under both PCB organizations")
		trials   = fs.Int("trials", 1, "seeded repetitions of the workload")
		parallel = fs.Int("parallel", 0, "sweep workers (0 = GOMAXPROCS, 1 = serial)")
		seed     = fs.Uint64("seed", 0, "base seed for per-trial RNG derivation (0 with -trials > 1 uses base 1)")
		jsonOut  = fs.Bool("json", false, "emit results as JSON instead of text")
		stream   = fs.String("stream", "auto", "fanin/churn latency statistics: on (constant-memory P²+reservoir), off (exact), or auto (on past -hosts 1024)")
		stagger  = fs.Int64("stagger", -1, "fanin: per-client start stagger in microseconds (-1 = auto: the per-client service estimate past -hosts 1024, else 0)")
		fabric   = fs.String("fabric", "hub", "ATM switch fabric: hub (one switch) or fattree (leaf switches trunked to a spine)")
		leaf     = fs.Int("leafports", 0, "fattree: hosts per leaf switch (0 = default 64)")
		shards   = fs.Int("shards", 0, "host-sharded trial execution: run each trial's event loop across N worker shards, bit-identical to serial (0 or 1 = serial)")
		transp   = fs.String("transport", "tcp", "fanin: transport under test, tcp or rudp (reliable UDP)")
		qdisc    = fs.String("qdisc", "none", "ATM egress queue discipline: none, droptail, red, or drr")
		burst    = fs.Float64("burstloss", 0, "Gilbert-Elliott burst loss: probability of entering the bad state per cell (0 = off)")
		crossN   = fs.Int("crosstraffic", 0, "fanin/loaded: background bounded-Pareto transfer flows contending with the workload")
		faultsN  = fs.Int("faults", 0, "fanin: seeded link flaps per client host during the run (shard-safe; 0 = none)")
		crashAt  = fs.Int64("crashat", 0, "faults: server crash time in milliseconds (0 = default 500)")
		downtime = fs.Int64("downtime", 0, "faults: crash-to-restart gap in milliseconds (0 = default 1000)")
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
	if err := checkFlags(fs, *wl); err != nil {
		return err
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: must not be negative (0 = GOMAXPROCS)", *parallel)
	}
	qk, err := lab.ParseQdiscKind(*qdisc)
	if err != nil {
		return fmt.Errorf("-qdisc: %w", err)
	}
	if *transp != workload.TransportTCP && *transp != workload.TransportRUDP {
		return fmt.Errorf("unknown -transport %q (want tcp or rudp)", *transp)
	}
	cfg := lab.Config{Link: lk, HashPCBs: *hash, CellLossRate: *loss, LeafPorts: *leaf,
		Qdisc: lab.QdiscConfig{Kind: qk}, BurstLoss: burstGE(*burst)}
	switch *fabric {
	case "hub":
	case "fattree":
		cfg.Fabric = lab.FabricFatTree
	default:
		return fmt.Errorf("unknown -fabric %q (want hub or fattree)", *fabric)
	}
	if err := cfg.Validate(*hosts, max(*shards, 1)); err != nil {
		var ce *lab.ConfigError
		if errors.As(err, &ce) {
			return fmt.Errorf("-%s: %w", cfgFlag(ce.Field), err)
		}
		return err
	}
	// A reliable-UDP message rides one datagram: the loaded and fault
	// studies run rudp beside tcp, a fan-in when -transport says so.
	if *wl == "loaded" || *wl == "faults" || *transp == workload.TransportRUDP {
		if limit := workload.RUDPMaxMessage(lab.MaxMTU(lk)); *size > limit {
			return fmt.Errorf("-size %d: rudp carries at most %d bytes a message on %v", *size, limit, lk)
		}
	}
	var stCfg stats.Config
	switch *stream {
	case "on":
		stCfg.Streaming = true
	case "off":
	case "auto":
		stCfg.Streaming = *hosts > scaleHosts
	default:
		return fmt.Errorf("unknown -stream %q (want on, off, or auto)", *stream)
	}

	// The loaded and fault studies are self-contained: fan-in under the
	// load knobs, or with a mid-run server crash, once per rival transport
	// on the hub ATM fabric, rendered as a comparison.
	switch *wl {
	case "loaded":
		res, err := core.RunLoadedStudy(core.LoadedOptions{
			Hosts: *hosts, Requests: *reqs, Size: *size,
			Qdisc:      cfg.Qdisc,
			BurstLoss:  cfg.BurstLoss,
			CrossFlows: *crossN,
			Shards:     *shards,
			Parallel:   *parallel,
			BaseSeed:   *seed,
		})
		if err != nil {
			return err
		}
		return emit(w, *jsonOut, res, res.Render)
	case "faults":
		res, err := core.RunFaultStudy(core.FaultOptions{
			Hosts: *hosts, Requests: *reqs, Size: *size,
			CrashAt:  sim.Time(*crashAt) * sim.Millisecond,
			Downtime: sim.Time(*downtime) * sim.Millisecond,
			Parallel: *parallel,
			BaseSeed: *seed,
		})
		if err != nil {
			return err
		}
		return emit(w, *jsonOut, res, res.Render)
	}

	stag := autoStaggerFor(*reqs)
	switch {
	case *stagger >= 0:
		stag = sim.Time(*stagger) * sim.Microsecond
	case *hosts <= scaleHosts:
		stag = 0
	}

	var gen workload.Generator
	switch *wl {
	case "fanin":
		g := workload.FanIn{Size: *size, Requests: *reqs, Warmup: fanInWarmup,
			Stats: stCfg, Stagger: stag, Transport: *transp}
		if *crossN > 0 {
			g.Cross = &workload.CrossTraffic{Flows: *crossN}
		}
		if *faultsN > 0 {
			// The flap schedule derives from the base seed and host
			// indices alone (per-entity splitmix64 streams), so it is
			// identical serially and at any -shards level.
			clients := make([]int, 0, *hosts-1)
			for i := 1; i < *hosts; i++ {
				clients = append(clients, i)
			}
			g.Faults = sim.LinkFlaps(*seed, clients, *faultsN, flapWindow, flapDowntime)
		}
		gen = g
	case "churn":
		gen = workload.Churn{Conns: *conns, Size: *size, Stats: stCfg}
	case "bulk":
		gen = workload.Bulk{Bytes: *bytesN}
	case "echo":
		gen = workload.Echo{Size: *size, Iterations: *reqs}
	}

	orgs := []bool{*hash}
	if *compare {
		orgs = []bool{false, true}
	}
	var ts []runner.WorkloadTrial
	for t := 0; t < *trials; t++ {
		for _, h := range orgs {
			c := cfg
			c.HashPCBs = h
			org := "list"
			if h {
				org = "hash"
			}
			label := fmt.Sprintf("%s/%dc/%s", *wl, *hosts-1, org)
			if *trials > 1 {
				label += fmt.Sprintf("/t%d", t)
			}
			ts = append(ts, runner.WorkloadTrial{Label: label, Cfg: c, Hosts: *hosts, Gen: gen, Shards: *shards})
		}
	}

	// Without a base seed every trial's simulation would use the fixed
	// default seed and -trials would produce identical repetitions;
	// derive from base 1 so repetitions actually vary (still fully
	// deterministic).
	base := *seed
	if base == 0 && *trials > 1 {
		base = 1
	}
	outs, err := runner.RunWorkloadSweep(context.Background(), ts,
		runner.Options{Workers: *parallel, BaseSeed: base})
	if err != nil {
		return err
	}
	for _, o := range outs {
		if o.Error != "" {
			return fmt.Errorf("trial %s: %s", o.Label, o.Error)
		}
	}
	return emit(w, *jsonOut, outs, func() string {
		title := fmt.Sprintf("Workload %s: %d host(s), %d trial(s)", *wl, *hosts, len(ts))
		return runner.RenderWorkloadOutcomes(title, outs)
	})
}

// emit prints a result: v as indented JSON, or the rendered text.
func emit(w io.Writer, asJSON bool, v any, render func() string) error {
	if !asJSON {
		fmt.Fprint(w, render())
		return nil
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(b))
	return nil
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

// flapWindow and flapDowntime shape the -faults link flaps: each flap's
// start is drawn over the window from the host's own seeded stream, and
// each outage is short enough that TCP rides it out on retransmission
// backoff instead of giving up.
const (
	flapWindow   = 20 * sim.Millisecond
	flapDowntime = 500 * sim.Microsecond
)
