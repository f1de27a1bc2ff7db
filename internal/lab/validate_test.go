package lab

import (
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
)

// TestValidate is the rulebook's table: for every rule one refused row —
// the error must name the field — and its nearest accepted neighbour.
func TestValidate(t *testing.T) {
	nan := math.NaN()
	red := QdiscConfig{Kind: QdiscRED}
	for _, tc := range []struct {
		name          string
		cfg           Config
		hosts, shards int
		field         string // the field the refusal names; "" when accepted
	}{
		{"one host", Config{}, 1, 1, "nHosts"},
		{"two hosts", Config{}, 2, 1, ""},
		{"no shard", Config{}, 4, 0, "shards"},
		{"one shard", Config{}, 4, 1, ""},
		{"Ethernet cut four ways", Config{Link: LinkEther}, 4, 4, "shards"},
		{"Ethernet, serial", Config{Link: LinkEther}, 4, 1, ""},

		{"unknown link", Config{Link: LinkEther + 1}, 2, 1, "Link"},
		{"unknown checksum mode", Config{Mode: cost.ChecksumNone + 1}, 2, 1, "Mode"},
		{"last checksum mode, on Ethernet", Config{Link: LinkEther, Mode: cost.ChecksumNone}, 2, 1, ""},

		{"negative population", Config{LivePCBs: -1}, 2, 1, "LivePCBs"},
		{"population", Config{LivePCBs: 1}, 2, 1, ""},
		{"population, sharded", Config{LivePCBs: 1}, 4, 2, "LivePCBs"},

		{"loss rate 1", Config{CellLossRate: 1}, 2, 1, "CellLossRate"},
		{"loss rate NaN", Config{CellLossRate: nan}, 2, 1, "CellLossRate"},
		{"loss rate below 0", Config{CellLossRate: -0.1}, 2, 1, "CellLossRate"},
		{"loss rate just under 1", Config{CellLossRate: 0.999}, 2, 1, ""},
		{"loss on Ethernet", Config{Link: LinkEther, CellLossRate: 0.01}, 2, 1, "CellLossRate"},
		{"loss, sharded", Config{CellLossRate: 0.01}, 4, 2, "CellLossRate"},
		{"cell corruption NaN", Config{CellCorruptRate: nan}, 2, 1, "CellCorruptRate"},
		{"cell corruption on Ethernet", Config{Link: LinkEther, CellCorruptRate: 0.01}, 2, 1, "CellCorruptRate"},
		{"cell corruption", Config{CellCorruptRate: 0.01}, 2, 1, ""},
		{"host corruption 1", Config{HostCorruptRate: 1}, 2, 1, "HostCorruptRate"},
		{"host corruption on Ethernet", Config{Link: LinkEther, HostCorruptRate: 0.01}, 2, 1, "HostCorruptRate"},
		{"host corruption", Config{HostCorruptRate: 0.01}, 2, 1, ""},

		{"burst entry 1", Config{BurstLoss: sim.GEParams{PGoodBad: 1}}, 2, 1, "BurstLoss.PGoodBad"},
		{"burst exit above 1", Config{BurstLoss: sim.GEParams{PBadGood: 1.1}}, 2, 1, "BurstLoss.PBadGood"},
		{"good-state loss NaN", Config{BurstLoss: sim.GEParams{LossGood: nan}}, 2, 1, "BurstLoss.LossGood"},
		{"bad-state loss above 1", Config{BurstLoss: sim.GEParams{LossBad: 1.5}}, 2, 1, "BurstLoss.LossBad"},
		{"burst loss at its edges, on Ethernet", Config{Link: LinkEther,
			BurstLoss: sim.GEParams{PGoodBad: 0.5, PBadGood: 1, LossGood: 0.1, LossBad: 1}}, 2, 1, ""},
		{"burst loss, sharded", Config{BurstLoss: sim.GEParams{PGoodBad: 0.01}}, 4, 2, "BurstLoss.PGoodBad"},

		{"reorder rate 1", Config{ReorderRate: 1}, 2, 1, "ReorderRate"},
		{"reordering on Ethernet", Config{Link: LinkEther, ReorderRate: 0.01}, 2, 1, "ReorderRate"},
		{"reordering, sharded", Config{ReorderRate: 0.01}, 4, 2, "ReorderRate"},
		{"negative reorder depth", Config{ReorderRate: 0.01, ReorderDepth: -1}, 2, 1, "ReorderDepth"},
		{"reorder depth on Ethernet", Config{Link: LinkEther, ReorderDepth: 2}, 2, 1, "ReorderDepth"},
		{"reordering on the fibre", Config{ReorderRate: 0.01, ReorderDepth: 2}, 2, 1, ""},

		{"unknown qdisc", Config{Qdisc: QdiscConfig{Kind: QdiscDRR + 1}}, 4, 1, "Qdisc.Kind"},
		{"qdisc on Ethernet", Config{Link: LinkEther, Qdisc: red}, 4, 1, "Qdisc.Kind"},
		{"qdisc on the fibre", Config{Qdisc: red}, 2, 1, "Qdisc.Kind"},
		{"qdisc behind a switch, sharded", Config{Qdisc: red}, 3, 3, ""},
		{"RED min at its default max", Config{Qdisc: QdiscConfig{Kind: QdiscRED, REDMinCells: 768}}, 4, 1, "Qdisc.Kind"},
		{"RED min just below its default max", Config{Qdisc: QdiscConfig{Kind: QdiscRED, REDMinCells: 767}}, 4, 1, ""},
		{"RED max at its min", Config{Qdisc: QdiscConfig{Kind: QdiscRED, REDMinCells: 8, REDMaxCells: 8}}, 4, 1, "Qdisc.Kind"},
		{"the same thresholds waiting under DRR", Config{Qdisc: QdiscConfig{Kind: QdiscDRR, REDMinCells: 8, REDMaxCells: 8}}, 4, 1, ""},
		{"negative limit", Config{Qdisc: QdiscConfig{Kind: QdiscDropTail, LimitCells: -1}}, 4, 1, "Qdisc.LimitCells"},
		{"limit without a discipline", Config{Qdisc: QdiscConfig{LimitCells: 64}}, 4, 1, "Qdisc.LimitCells"},
		{"limit", Config{Qdisc: QdiscConfig{Kind: QdiscDropTail, LimitCells: 64}}, 4, 1, ""},
		{"negative RED min", Config{Qdisc: QdiscConfig{Kind: QdiscRED, REDMinCells: -1}}, 4, 1, "Qdisc.REDMinCells"},
		{"RED min without a discipline", Config{Qdisc: QdiscConfig{REDMinCells: 2}}, 4, 1, "Qdisc.REDMinCells"},
		{"negative RED max", Config{Qdisc: QdiscConfig{Kind: QdiscRED, REDMaxCells: -1}}, 4, 1, "Qdisc.REDMaxCells"},
		{"RED max on the fibre", Config{Qdisc: QdiscConfig{REDMaxCells: 9}}, 2, 1, "Qdisc.REDMaxCells"},
		{"RED max-p above 1", Config{Qdisc: QdiscConfig{Kind: QdiscRED, REDMaxP: 1.5}}, 4, 1, "Qdisc.REDMaxP"},
		{"RED weight NaN", Config{Qdisc: QdiscConfig{Kind: QdiscRED, REDWeight: nan}}, 4, 1, "Qdisc.REDWeight"},
		{"RED at its edges", Config{Qdisc: QdiscConfig{Kind: QdiscRED, REDMinCells: 2, REDMaxCells: 3, REDMaxP: 1, REDWeight: 1}}, 4, 1, ""},
		{"negative DRR quantum", Config{Qdisc: QdiscConfig{Kind: QdiscDRR, DRRQuantumBytes: -1}}, 4, 1, "Qdisc.DRRQuantumBytes"},
		{"DRR quantum without a discipline", Config{Qdisc: QdiscConfig{DRRQuantumBytes: 53}}, 4, 1, "Qdisc.DRRQuantumBytes"},
		{"DRR quantum", Config{Qdisc: QdiscConfig{Kind: QdiscDRR, DRRQuantumBytes: 53}}, 4, 1, ""},

		{"negative MTU", Config{MTU: -1}, 2, 1, "MTU"},
		{"MTU below the floor", Config{MTU: MinMTU - 1}, 2, 1, "MTU"},
		{"MTU at the floor", Config{MTU: MinMTU}, 2, 1, ""},
		{"MTU above ATM's", Config{MTU: MaxMTU(LinkATM) + 1}, 2, 1, "MTU"},
		{"MTU at ATM's", Config{MTU: MaxMTU(LinkATM)}, 2, 1, ""},
		{"MTU above Ethernet's", Config{Link: LinkEther, MTU: MaxMTU(LinkEther) + 1}, 2, 1, "MTU"},
		{"MTU at Ethernet's", Config{Link: LinkEther, MTU: MaxMTU(LinkEther)}, 2, 1, ""},
		{"negative socket buffer", Config{SockBuf: -1}, 2, 1, "SockBuf"},
		{"one-byte socket buffer", Config{SockBuf: 1}, 2, 1, ""},

		{"unknown fabric", Config{Fabric: FabricFatTree + 1}, 4, 1, "Fabric"},
		{"fat tree on Ethernet", Config{Link: LinkEther, Fabric: FabricFatTree}, 4, 1, "Fabric"},
		{"fat tree on the fibre", Config{Fabric: FabricFatTree}, 2, 1, "Fabric"},
		{"fat tree of three", Config{Fabric: FabricFatTree}, 3, 1, ""},
		{"negative leaf ports", Config{Fabric: FabricFatTree, LeafPorts: -1}, 4, 1, "LeafPorts"},
		{"leaf ports on a hub", Config{LeafPorts: 4}, 4, 1, "LeafPorts"},
		{"leaf ports on the fibre", Config{Fabric: FabricFatTree, LeafPorts: 4}, 2, 1, "Fabric"},
		{"leaf ports", Config{Fabric: FabricFatTree, LeafPorts: 4}, 9, 3, ""},

		{"everything unruled", Config{DisablePrediction: true, HashPCBs: true, PacketTrace: true,
			CheckLeaks: true, Cost: cost.DECstation5000(), Seed: math.MaxUint64, Nagle: true}, 4, 4, ""},
	} {
		err := tc.cfg.Validate(tc.hosts, tc.shards)
		var ce *ConfigError
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.field != "" && !errors.As(err, &ce):
			t.Errorf("%s: got %v, want a *ConfigError naming %s", tc.name, err, tc.field)
		case tc.field != "" && (ce.Field != tc.field || !strings.Contains(err.Error(), tc.field) || ce.Reason == ""):
			t.Errorf("%s: refusal %q names %q, want %s", tc.name, err, ce.Field, tc.field)
		}
		// Every door holds the same rulebook.
		if _, berr := NewCluster(tc.cfg, tc.hosts, tc.shards); (berr == nil) != (err == nil) {
			t.Errorf("%s: Validate says %v, NewCluster says %v", tc.name, err, berr)
		}
	}
}

// fieldPaths lists a struct type's fields, dotted under prefix.
func fieldPaths(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		out = append(out, prefix+t.Field(i).Name)
	}
	return out
}

// TestEveryConfigFieldHasARule walks Config, QdiscConfig and
// sim.GEParams by reflection: a field in neither the rulebook nor the
// short applies-everywhere list fails here, so the next knob cannot be
// added unvalidated — and a rule for a field that is gone fails too.
func TestEveryConfigFieldHasARule(t *testing.T) {
	known := map[string]bool{}
	for _, r := range rules {
		known[r.field] = true
	}
	for _, f := range unruled {
		if known[f] {
			t.Errorf("%s is both ruled and listed as unruled", f)
		}
		known[f] = true
	}
	var fields []string
	for _, f := range fieldPaths(reflect.TypeOf(Config{}), "") {
		switch f {
		case "Qdisc":
			fields = append(fields, fieldPaths(reflect.TypeOf(QdiscConfig{}), "Qdisc.")...)
		case "BurstLoss":
			fields = append(fields, fieldPaths(reflect.TypeOf(sim.GEParams{}), "BurstLoss.")...)
		default:
			fields = append(fields, f)
		}
	}
	if len(fields) != 21-2+7+4 {
		t.Errorf("walked %d fields; Config has 21, two of them structs of 7 and 4", len(fields))
	}
	for _, f := range fields {
		if !known[f] {
			t.Errorf("Config.%s has no rule in validate.go and is not listed as unruled", f)
		}
		delete(known, f)
	}
	for f := range known {
		t.Errorf("validate.go has a rule for %s, which is not a Config field", f)
	}
	// Row i of the rulebook judges entry i of ruledValues: setting the
	// row's field, and nothing else, must light exactly that entry.
	for i, r := range rules {
		var cfg Config
		v := reflect.ValueOf(&cfg).Elem()
		for _, name := range strings.Split(r.field, ".") {
			v = v.FieldByName(name)
		}
		if v.CanFloat() {
			v.SetFloat(0.5)
		} else {
			v.SetInt(1)
		}
		for j, got := range cfg.ruledValues() {
			if (got != 0) != (i == j) {
				t.Errorf("with only %s set, ruledValues()[%d] (%s's) reads %v", r.field, j, rules[j].field, got)
			}
		}
	}
}

// fieldTable renders the rulebook as the Markdown table
// docs/METHODOLOGY.md quotes.
func fieldTable() string {
	var b strings.Builder
	b.WriteString("| `lab.Config` field | Accepted | A nonzero value applies to | Sharded |\n|---|---|---|---|\n")
	for _, r := range rules {
		accepted := r.rangeDoc()
		if r.values != "" {
			accepted = r.values
		}
		if r.alsoDoc != "" {
			accepted += "; " + r.alsoDoc
		}
		sharded := "yes"
		if r.serial {
			sharded = "one shard only"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %v | %s |\n", r.field, accepted, r.needs, sharded)
	}
	fmt.Fprintf(&b, "| `%s` | any | %v | yes |\n", strings.Join(unruled, "`, `"), anyTestbed)
	return b.String()
}

// TestMethodologyFieldTable keeps the documented "field → applies to"
// table equal to the rows Validate walks.
func TestMethodologyFieldTable(t *testing.T) {
	doc, err := os.ReadFile("../../docs/METHODOLOGY.md")
	if err != nil {
		t.Fatal(err)
	}
	if want := fieldTable(); !strings.Contains(string(doc), want) {
		t.Errorf("docs/METHODOLOGY.md does not quote the rulebook as it stands; the table should read:\n%s", want)
	}
}

// fuzzConfig derives a configuration, a host count (2..9) and a shard
// count from raw bytes: every field gets a byte, small values mostly,
// with negatives, out-of-range enums and NaN reachable. Rates are capped
// at 0.2 so an accepted configuration's run stays short.
func fuzzConfig(b []byte) (cfg Config, hosts, shards int) {
	next := func() byte {
		if len(b) == 0 {
			return 0
		}
		v := b[0]
		b = b[1:]
		return v
	}
	count := func() int { return int(int8(next())) / 8 } // -16..15
	rate := func() float64 {
		switch v := next(); {
		case v == 255:
			return math.NaN()
		case v >= 250:
			return float64(v-249) / 2 // 0.5..2.5: out of every open range
		case v >= 128:
			return 0
		default:
			return float64(v) / 640 // < 0.2
		}
	}
	hosts = 2 + int(next()%8)
	shards = int(next() % 6)
	cfg = Config{
		Link:              LinkKind(next() % 3),
		Mode:              cost.ChecksumMode(next() % 4),
		DisablePrediction: next()%2 == 1,
		HashPCBs:          next()%2 == 1,
		LivePCBs:          count(),
		CellLossRate:      rate(),
		CellCorruptRate:   rate(),
		HostCorruptRate:   rate(),
		BurstLoss:         sim.GEParams{PGoodBad: rate(), PBadGood: rate(), LossGood: rate(), LossBad: rate()},
		ReorderRate:       rate(),
		ReorderDepth:      count(),
		Qdisc: QdiscConfig{Kind: QdiscKind(next() % 5), LimitCells: 8 * count(),
			REDMinCells: count(), REDMaxCells: count(), REDMaxP: rate(), REDWeight: rate(),
			DRRQuantumBytes: 53 * count()},
		MTU:         int(next()) * 40, // 0..10200: both links' ceilings in reach
		SockBuf:     512 * count(),
		PacketTrace: next()%2 == 1,
		CheckLeaks:  next()%2 == 1,
		Fabric:      FabricKind(next() % 3),
		LeafPorts:   count(),
		Seed:        uint64(next()),
		Nagle:       next()%2 == 1,
	}
	return cfg, hosts, shards
}

// FuzzConfigValidate is the robustness contract end to end: Validate
// never panics, and a configuration it accepts builds, runs a two-round
// echo under a watchdog — to a result, or to a diagnosed error when the
// links lose, corrupt or reorder, never to a hang or a panic — and
// resets to a second accepted configuration of its shape.
func FuzzConfigValidate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 4, 0, 0, 0, 1})                                      // 4 hosts, 4 shards, hashed
	f.Add([]byte{0, 1, 1, 2, 1, 0, 0, 0, 0, 0, 30})                      // Ethernet, burst loss
	f.Add([]byte{3, 1, 0, 0, 0, 0, 8, 20, 10, 10, 0, 0, 0, 0, 5, 16, 2}) // hub, loss, reorder, RED
	f.Add([]byte{7, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 37, 8, 0, 0, 1, 16, 7})
	// What the target found first: twelve population connections under 14 %
	// cell loss. A SYN-ACK retransmitted while its ACK was on the way in
	// left the server one phantom sequence byte to retransmit, so the
	// echo's result arrived only when the watchdog ended the run
	// (tcp.TestSynAckRetransmittedWhileItsAckIsInFlight owns the fix).
	f.Add([]byte("010000aYx\b0000000000"))
	f.Fuzz(func(t *testing.T, b []byte) {
		half := len(b) / 2
		cfg, hosts, shards := fuzzConfig(b[:half])
		err := cfg.Validate(hosts, shards)
		var ce *ConfigError
		if err != nil {
			if !errors.As(err, &ce) || ce.Field == "" || ce.Reason == "" {
				t.Fatalf("refusal %v does not name a field and a reason", err)
			}
			return
		}
		c, err := NewCluster(cfg, hosts, shards)
		if err != nil {
			t.Fatalf("Validate accepted %+v (%d hosts, %d shards), NewCluster refused: %v", cfg, hosts, shards, err)
		}
		wd := c.ArmWatchdog(0)
		if _, err := c.Lab.RunEcho(64, 2, 0); err != nil || wd.Fired() {
			// A configuration that loses, corrupts and reorders nothing has
			// no excuse: its echo completes and its connections go quiet.
			if cfg.CellLossRate == 0 && cfg.CellCorruptRate == 0 && cfg.HostCorruptRate == 0 &&
				!cfg.BurstLoss.Enabled() && cfg.ReorderRate == 0 {
				t.Fatalf("loss-free %+v (%d hosts, %d shards): echo error %v, watchdog fired %v",
					cfg, hosts, shards, err, wd.Fired())
			}
			// Diagnosed, not hung: loss can starve a two-round echo, or
			// leave a connection backing off after it until the watchdog
			// ends the run. Either way the loop still holds the dead run's
			// events, which Reset rightly refuses.
			return
		}
		next, _, _ := fuzzConfig(b[half:])
		next.Link, next.Fabric, next.LeafPorts = cfg.Link, cfg.Fabric, cfg.LeafPorts
		if next.Validate(hosts, c.NumShards()) != nil {
			return
		}
		if err := c.Reset(next, 0); err != nil {
			t.Fatalf("Reset within the shape refused %+v: %v", next, err)
		}
	})
}
