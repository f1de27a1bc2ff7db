package lab

import (
	"fmt"
	"math"

	"repro/internal/atm"
	"repro/internal/cost"
)

// ConfigError is a refused configuration: the field no part of the
// testbed would have read, or whose value none can honour, and why.
// Field is the Config field's name, dotted into nested structs
// ("Qdisc.Kind", "BurstLoss.PGoodBad"), or "nHosts" / "shards" for
// Validate's own arguments — what a tool maps back to its flag.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string { return "lab: " + e.Field + " " + e.Reason }

// Shape is the part of a testbed that is machines and wiring rather than
// trial knobs. Testbeds of one shape are interchangeable through
// Cluster.Reset; testbeds of different shapes never are, which makes it
// the key of any testbed cache. Shards is the effective count (see
// Config.Shape): a serial lab and a cluster clamped to one shard are the
// same machine.
type Shape struct {
	Link      LinkKind
	Hosts     int
	Fabric    FabricKind
	LeafPorts int
	Shards    int
}

// Shape returns the shape of the testbed NewCluster builds for a valid
// configuration, with the shard count clamped to the partition's units:
// every host on a hub, every leaf switch on a fat tree, and one for
// Ethernet and the two-host fibre, which have no cuttable link.
func (cfg Config) Shape(nHosts, shards int) Shape {
	units := (nHosts + cfg.unitHosts() - 1) / cfg.unitHosts()
	if cfg.Link != LinkATM || nHosts == 2 {
		units = 1
	}
	return Shape{Link: cfg.Link, Hosts: nHosts, Fabric: cfg.Fabric,
		LeafPorts: cfg.LeafPorts, Shards: max(1, min(shards, units))}
}

// unitHosts is the size of a partition unit: a fat tree's leaf (hosts
// never straddle a cut host link or an uncut trunk), one host on a hub.
func (cfg Config) unitHosts() int {
	switch {
	case cfg.Fabric != FabricFatTree:
		return 1
	case cfg.LeafPorts > 0:
		return cfg.LeafPorts
	}
	return atm.DefaultLeafPorts
}

// need is the hardware a field configures: a nonzero value on a testbed
// without it would be read by nothing.
type need int

const (
	anyTestbed need = iota
	needATM         // an ATM adapter or driver
	needSwitch      // a switch: ATM with three or more hosts
)

func (n need) String() string {
	return [...]string{"every testbed", "ATM", "ATM, 3+ hosts (a switch)"}[n]
}

// rule is one row of the rulebook: the values a Config field may take
// and the testbeds a nonzero value applies to. The field's value, as a
// number with zero for "not set", is ruledValues' entry at the row's index.
type rule struct {
	field string
	// The accepted range is [min, max], or [min, max) when open; values
	// documents it where an interval would not (an enum's names).
	min, max float64
	open     bool
	values   string
	needs    need
	// serial marks a field refused above one shard: one host reaching
	// into another's state (LivePCBs), or a loss or reordering chain,
	// which sharded runs are not held bit-identical under.
	serial bool
	// also is a condition across fields or on the shard count, with the
	// sentence that documents it; it returns the refusal or "". It runs
	// once every field is known to be in range.
	also    func(c Config, shards int) string
	alsoDoc string
}

var inf = math.Inf(1)

// rules is the rulebook Validate walks, in Config's field order. A
// field absent from it must be listed in unruled.
var rules = [...]rule{
	{field: "Link", max: float64(LinkEther), values: "LinkATM, LinkEther"},
	{field: "Mode", max: float64(cost.ChecksumNone), values: "a cost.ChecksumMode"},
	{field: "LivePCBs", max: inf, serial: true},
	{field: "BurstLoss.PGoodBad", max: 1, open: true, serial: true},
	{field: "BurstLoss.PBadGood", max: 1, serial: true},
	{field: "BurstLoss.LossGood", max: 1, open: true, serial: true},
	{field: "BurstLoss.LossBad", max: 1, serial: true},
	{field: "ReorderRate", max: 1, open: true, needs: needATM, serial: true},
	{field: "ReorderDepth", max: inf, needs: needATM, serial: true},
	{field: "Qdisc.Kind", max: float64(QdiscDRR), values: "a QdiscKind", needs: needSwitch,
		also: qdiscKind, alsoDoc: "under RED the resolved min threshold is below the max; DRR on one shard only"},
	{field: "Qdisc.LimitCells", max: inf, needs: needSwitch, also: qdiscParam, alsoDoc: qdiscParamDoc},
	{field: "Qdisc.REDMinCells", max: inf, needs: needSwitch, also: qdiscParam, alsoDoc: qdiscParamDoc},
	{field: "Qdisc.REDMaxCells", max: inf, needs: needSwitch, also: qdiscParam, alsoDoc: qdiscParamDoc},
	{field: "Qdisc.REDMaxP", max: 1, needs: needSwitch, also: qdiscParam, alsoDoc: qdiscParamDoc},
	{field: "MTU", max: inf, values: "0, or within [MinMTU, MaxMTU(Link)]", also: func(c Config, _ int) string {
		if c.MTU < MinMTU || c.MTU > MaxMTU(c.Link) {
			return fmt.Sprintf("outside [%d, %d]: the floor holds the IP and TCP headers plus data, the ceiling is %v's native MTU", MinMTU, MaxMTU(c.Link), c.Link)
		}
		return ""
	}},
	{field: "SockBuf", max: inf},
	{field: "Fabric", max: float64(FabricFatTree), values: "FabricHub, FabricFatTree", needs: needSwitch},
	{field: "LeafPorts", max: inf, needs: needSwitch, alsoDoc: "with FabricFatTree", also: func(c Config, _ int) string {
		if c.Fabric != FabricFatTree {
			return "needs Fabric: FabricFatTree; a hub has no leaves"
		}
		return ""
	}},
}

// ruledValues returns every ruled field as a number, in rules' order
// (TestEveryConfigFieldHasARule holds the two together). An array built
// in place rather than an accessor per row: Validate runs on every Reset,
// and this way nothing of it reaches the heap.
func (cfg Config) ruledValues() [len(rules)]float64 {
	q, ge := cfg.Qdisc, cfg.BurstLoss
	return [...]float64{float64(cfg.Link), float64(cfg.Mode), float64(cfg.LivePCBs),
		ge.PGoodBad, ge.PBadGood, ge.LossGood, ge.LossBad,
		cfg.ReorderRate, float64(cfg.ReorderDepth),
		float64(q.Kind), float64(q.LimitCells), float64(q.REDMinCells), float64(q.REDMaxCells),
		q.REDMaxP,
		float64(cfg.MTU), float64(cfg.SockBuf), float64(cfg.Fabric), float64(cfg.LeafPorts)}
}

// unruled lists the Config fields every testbed reads at any value, so
// Validate has nothing to say about them.
var unruled = []string{"DisablePrediction", "HashPCBs", "PacketTrace", "CheckLeaks", "Cost", "Seed", "Nagle"}

// qdiscParam is the cross-field condition of a discipline's parameters:
// they wait on a discipline. Which one is not checked — a grid varies
// Kind over one parameter set (bench's loaded-grid does).
func qdiscParam(c Config, _ int) string {
	if !c.Qdisc.Enabled() {
		return "needs a Qdisc.Kind to parameterize"
	}
	return ""
}

const qdiscParamDoc = "with a Qdisc.Kind"

// qdiscKind refuses DRR above one shard — a cut fibre stages its cell at
// commit, and DRR picks which cell fills a slot only when the slot's
// arrival fires (atm.Port.serve) — and the RED thresholds atm.NewRED
// would panic on, resolving the defaults as it does.
func qdiscKind(c Config, shards int) string {
	q := c.Qdisc
	if q.Kind == QdiscDRR && shards > 1 {
		return fmt.Sprintf("cannot run on %d shards: DRR picks a slot's cell when its arrival fires, after a cut fibre has staged it", shards)
	}
	limit, lo, hi := q.LimitCells, q.REDMinCells, q.REDMaxCells
	if limit == 0 {
		limit = atm.DefaultPortQueueCells
	}
	if lo == 0 {
		lo = limit / 4
	}
	if hi == 0 {
		hi = limit * 3 / 4
	}
	if q.Kind == QdiscRED && lo >= hi {
		return fmt.Sprintf("resolves RED's thresholds to min %d, max %d: Qdisc.REDMinCells must stay below Qdisc.REDMaxCells", lo, hi)
	}
	return ""
}

// Validate is the one rulebook of what a Config field applies to: it
// returns a *ConfigError naming the first field that is out of range,
// that configures hardware a testbed of nHosts hosts on cfg.Link does
// not have, or that cannot run on the requested number of shards — and
// nil for a configuration in which every nonzero field will be read.
// NewCluster and Cluster.Reset return its error; NewTopology panics with
// it.
func (cfg Config) Validate(nHosts, shards int) error {
	if nHosts < 2 {
		return &ConfigError{"nHosts", fmt.Sprintf("%d: a topology needs at least 2 hosts", nHosts)}
	}
	if shards < 1 {
		return &ConfigError{"shards", fmt.Sprintf("%d: a cluster needs at least 1 shard", shards)}
	}
	vals := cfg.ruledValues()
	refuse := func(i int, why string) error {
		return &ConfigError{rules[i].field, fmt.Sprintf("%v %s", vals[i], why)}
	}
	for i, v := range vals {
		if r := &rules[i]; !(v >= r.min && (v < r.max || v == r.max && !r.open)) { // NaN fails
			return refuse(i, "out of range "+r.rangeDoc())
		}
	}
	for i, v := range vals {
		r := &rules[i]
		switch {
		case v == 0:
			continue
		case r.needs != anyTestbed && cfg.Link != LinkATM:
			return refuse(i, fmt.Sprintf("applies to the ATM link only; %v has nothing that reads it", cfg.Link))
		case r.needs == needSwitch && nHosts == 2:
			return refuse(i, "needs a switch, and two hosts share the switchless fibre")
		case r.serial && shards > 1:
			return refuse(i, fmt.Sprintf("cannot run on %d shards: sharded runs are held bit-identical to serial only without it", shards))
		}
		if r.also != nil {
			if why := r.also(cfg, shards); why != "" {
				return refuse(i, why)
			}
		}
	}
	if shards > 1 && cfg.Link != LinkATM {
		return &ConfigError{"shards", fmt.Sprintf("%d needs the ATM link: %v is one broadcast domain with no cuttable link", shards, cfg.Link)}
	}
	return nil
}

// rangeDoc renders the accepted range for messages and the field table.
func (r *rule) rangeDoc() string {
	switch {
	case r.max == inf:
		return fmt.Sprintf(">= %v", r.min)
	case r.open:
		return fmt.Sprintf("[%v, %v)", r.min, r.max)
	}
	return fmt.Sprintf("[%v, %v]", r.min, r.max)
}
