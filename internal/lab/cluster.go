// Sharded execution: conservative-lookahead discrete-event simulation
// of one big scenario on several event loops. A Cluster partitions a
// topology's hosts across shards, each with its own sim.Env event loop,
// and synchronizes them in barrier rounds: every round Run reads each
// shard's earliest pending event, gives each shard its own safe horizon
// (see horizonFor), and runs every shard holding an event below its
// horizon up to it, one window after another in shard order, on the
// calling goroutine. The horizons derive from the lookahead — the
// minimum latency a cell needs to cross a cut fiber (first-cell
// serialization plus propagation, plus the switch latency when only
// trunks are cut) — so nothing a shard does inside a round can affect
// another shard within that same round — the classic conservative-PDES
// argument, with the cut links of the ATM fabric as the only channels.
// The windows of one round are therefore independent, and running them
// in turn is one of the interleavings the contract below allows.
//
// The contract is bit-identity, not approximate equivalence: a sharded
// run must be event-for-event and byte-for-byte identical to the serial
// run at every shard count. Three mechanisms carry it. First, cut
// fibers stage each crossing cell with the arrival time the serial run
// would have used and the instant it would have created the arrival's
// event, and the barrier injects them between rounds in canonical
// order — ascending arrival, ties by that instant, then source shard
// and emission order: the order the serial event queue would have
// assigned sequence numbers. A FIFO transmitter creates the arrival
// event when it commits the cell, not at a transmit-complete event (it
// has none), so its instant is the commit: cells that tie on arrival tie
// on completion too (one propagation delay everywhere), and the serial
// run fires first the one committed first — the one that queued behind a
// backlog, not the one that found its link idle. A port under a queue
// discipline commits the same way. DRR, which reorders, picks a slot's
// cell only when the slot's arrival fires, after a cut fibre has staged
// it, so Validate keeps it to one shard. Second, a VC path that
// reaches a switch outside the calling shard waits in the fabric's route
// table to be finished at the next barrier, which is always before the
// flow's first data cell can arrive there (that cell itself must cross a
// cut, which delays it past the barrier). Third, each shard's env
// refuses to advance its clock past the horizon (sim.Env.SetHorizon
// bounds both RunWindow and SleepUntil's in-place fast path), so no
// shard ever runs ahead of what its peers might still deliver.
//
// Sharding is never faster than the serial loop (docs/PERFORMANCE.md
// item 11) and no command offers it; the benchmark harness under bench/
// and the bit-identity tests are what build clusters of more than one
// shard.
package lab

import (
	"fmt"

	"repro/internal/atm"
	"repro/internal/cost"
	"repro/internal/ether"
	"repro/internal/sim"
)

// Shard is one partition of a cluster: the event loop its hosts live in.
type Shard struct {
	Env *sim.Env
}

// stagedCell is one cell in flight across a shard boundary, with the
// serial run's two times: scheduleAt is when the serial run would have
// created the arrival event (the canonical tie-break) and at is the
// arrival itself.
type stagedCell struct {
	srcShard   int
	dstShard   int
	scheduleAt sim.Time
	at         sim.Time
	to         atm.CellDest
	cell       atm.Cell
}

// inbox holds one shard's injected cells between the barrier that
// scheduled their arrival events and the events firing: each arrival
// parks in a slot and its event carries only the slot index, through a
// callback bound once per shard, so injecting allocates nothing once the
// slab has grown to the shard's peak of cells in flight. The barrier
// parks arrivals and the owning shard delivers them inside its window.
type inbox struct {
	slots []inboxSlot
	free  []uint32     // vacant slot indices
	fire  func(uint64) // (*inbox).deliver, bound at construction
}

type inboxSlot struct {
	to   atm.CellDest
	cell atm.Cell
}

// park stores an arrival and returns its slot, the event argument.
func (b *inbox) park(to atm.CellDest, cell atm.Cell) uint64 {
	if n := len(b.free); n > 0 {
		i := b.free[n-1]
		b.free = b.free[:n-1]
		b.slots[i] = inboxSlot{to, cell}
		return uint64(i)
	}
	b.slots = append(b.slots, inboxSlot{to, cell})
	return uint64(len(b.slots) - 1)
}

// deliver is the "xshard.cellin" event: vacate the slot, then hand the
// cell to its destination on the far side of the cut.
func (b *inbox) deliver(slot uint64) {
	m := b.slots[slot]
	b.free = append(b.free, uint32(slot))
	m.to.InjectCell(m.cell)
}

// Cluster is a testbed's executor: one Lab whose hosts are spread across
// per-shard event loops. A serial lab is the one-shard cluster — every
// Lab has one (Lab.Cluster), and everything that drives a topology is
// written against it once: EnvOf names the loop a host's processes run
// on, Run drains every loop, and Lab.ArmWatchdog arms every loop (a
// fault schedule runs on one shard only, see ScheduleFaults). Build a
// sharded one with NewCluster, drive it with Run (or
// Lab.RunEcho for the paper's benchmark), and rewind it between trials
// with Reset (Lab.Reset is the same call).
type Cluster struct {
	Lab    *Lab
	Shards []*Shard

	// lookahead is the conservative safe-time window: the minimum time a
	// cell needs to cross any cut fiber. boomerang is the minimum time a
	// causal consequence of a staged cell's arrival needs to cross back
	// INTO the emitting shard (see stageCell). Both derive from the trial
	// configuration (configure sets them); zero on one shard, which has no
	// cut to cross.
	lookahead sim.Time
	boomerang sim.Time
	hostShard []int

	// rounds counts barrier rounds across the cluster's lifetime, and
	// cellsStaged the cells that crossed a shard boundary.
	rounds, cellsStaged int64

	// outbox is the per-source-shard staging area written from inside
	// each shard's window during a round and drained at the barrier.
	// pending holds drained cells per DESTINATION shard in canonical
	// order until the round whose horizon needs them: deferring
	// injection is what lets equal-time arrivals staged in different
	// rounds meet in one buffer and sort canonically (see applyStaged).
	outbox  [][]stagedCell
	pending [][]stagedCell
	// pendStart is applyStaged's per-destination scratch: the pending
	// length before this round's appends, i.e. where re-sorting starts.
	pendStart []int
	// inbox is the per-destination slab injected cells wait in until
	// their arrival events fire; next is Run's per-shard scratch (see
	// nextTimes).
	inbox []inbox
	next  []sim.Time
}

// NewCluster builds a testbed of nHosts ATM workstations partitioned
// across up to the requested number of shards. The partition is
// topology-aware: on a hub every host is its own unit, on a fat tree
// the unit is the leaf switch (hosts never straddle a cut host link or
// an uncut trunk), and unit 0 — the workload server's — always forms
// shard 0 alone with the core switch, so the fan-in hot spot gets a
// dedicated event loop. The shard count is clamped to the unit count,
// and a clamp to one shard (including the two-host switchless fiber,
// which has no cuttable boundary) is a plain serial lab.
//
// Validate is the rulebook of what is refused: a field the testbed has
// nothing to read, and above one shard whatever depends on a globally
// ordered RNG stream or on one host mutating another's state directly.
// Payload fills also draw from per-shard RNGs — that diverges from the
// serial stream, but payload bytes are behaviorally inert (checksum costs
// are data-independent and echo comparison is against the sender's own
// message), so bit-identity of every event, result, and trace is
// unaffected.
func NewCluster(cfg Config, nHosts, shards int) (*Cluster, error) {
	if err := cfg.Validate(nHosts, shards); err != nil {
		return nil, err
	}
	return build(cfg, cfg.Shape(nHosts, shards)), nil
}

// build is the one builder: every testbed — New, NewTopology, NewCluster
// — is wired here once and afterwards only re-configured (Reset). Host i
// is allocated on shard hostShard[i]'s event loop; the link wiring is the
// two-host fiber, a routed fabric laid across the shards' loops (cutting
// whatever fiber crosses between two), or one Ethernet segment. It ends
// with the same configure step Reset ends with, so nothing derived from
// the configuration is computed here.
func build(cfg Config, shape Shape) *Cluster {
	nHosts, shards := shape.Hosts, shape.Shards
	hostShard := partitionHosts(nHosts, cfg.unitHosts(), shards)
	l := &Lab{Hosts: make([]*Host, nHosts)}
	c := &Cluster{
		Lab:       l,
		Shards:    make([]*Shard, shards),
		hostShard: hostShard,
		outbox:    make([][]stagedCell, shards),
		pending:   make([][]stagedCell, shards),
		pendStart: make([]int, shards),
		inbox:     make([]inbox, shards),
		next:      make([]sim.Time, shards),
	}
	l.cluster = c
	envs := make([]*sim.Env, shards)
	for s := range envs {
		envs[s] = sim.NewEnv()
		c.Shards[s] = &Shard{Env: envs[s]}
		c.inbox[s].fire = c.inbox[s].deliver
	}
	l.Env = envs[0]
	model := cfg.model()
	for i, s := range hostShard {
		l.Hosts[i] = buildHost(envs[s], model, cfg.Link, i)
	}
	l.Client, l.Server = l.Hosts[0], l.Hosts[1]

	switch cfg.Link {
	case LinkATM:
		if nHosts == 2 {
			atm.Connect(l.Client.ATMAdapter, l.Server.ATMAdapter)
			break
		}
		drvs := make([]*atm.Driver, nHosts)
		for i, h := range l.Hosts {
			drvs[i] = h.ATMDriver
		}
		l.Fabric = atm.NewFabric(&atm.ShardPlan{
			Envs:      envs,
			HostShard: hostShard,
			StageCell: c.stageCell,
		}, cfg.Fabric, model, cfg.LeafPorts, drvs)
		l.Switch = l.Fabric.Core
	case LinkEther:
		l.Segment = ether.NewSegment()
		for i, h := range l.Hosts {
			l.Segment.Attach(h.EthAdapter)
			l.Segment.BindIP(HostAddr(i), h.EthAdapter)
		}
	}
	c.configure(cfg)
	return c
}

// model returns the cost model the configuration runs under (nil
// Config.Cost means DECstation 5000/200).
func (cfg Config) model() *cost.Model {
	if cfg.Cost != nil {
		return cfg.Cost
	}
	return cost.DECstation5000()
}

// configure applies a trial configuration to a wired testbed: the last
// step of build and of Reset, and the only place anything is derived
// from a Config — RNG seeds, every per-host knob, the adapters'
// impairment chains, the switch ports' queue disciplines, and
// (above one shard) the cluster's lookahead and boomerang bounds. A
// quantity computed here cannot go stale across a Reset.
func (c *Cluster) configure(cfg Config) {
	l := c.Lab
	l.Config = cfg
	if cfg.Seed != 0 {
		for _, sh := range c.Shards {
			sh.Env.Seed(cfg.Seed)
		}
	}
	for i, h := range l.Hosts {
		// Events are kept when the trial asks; core's grid measurement
		// arms the client's recorder itself for a breakdown.
		if cfg.PacketTrace {
			h.Kern.Trace.EnablePackets()
		} else {
			h.Kern.Trace.DisablePackets()
		}
		// Each host's impairment layer — the Gilbert–Elliott loss chain
		// and (ATM only) bounded reordering — draws a private stream
		// derived from Config.Seed. Adapters clear impairment state on
		// Reset; zero impairment fields leave the receive path
		// byte-identical to an unimpaired adapter.
		seed := deriveSeed(cfg.Seed, 0x1000_0000+uint64(i))
		if h.ATMAdapter != nil {
			h.ATMDriver.Mode = cfg.Mode
			h.ATMDriver.MTUOverride = cfg.MTU
			h.ATMAdapter.SetImpairments(cfg.BurstLoss, cfg.ReorderRate, cfg.ReorderDepth, seed)
		}
		if h.EthAdapter != nil {
			h.EthDriver.MTUOverride = cfg.MTU
			h.EthAdapter.SetImpairments(cfg.BurstLoss, seed)
		}
		h.TCP.SockBuf = cfg.SockBuf
		h.TCP.Mode = cfg.Mode
		h.TCP.PredictionEnabled = !cfg.DisablePrediction
		h.TCP.Table.UseHash = cfg.HashPCBs
		h.UDP.ChecksumOff = cfg.Mode == cost.ChecksumNone
	}
	applyQdisc(l.Fabric, cfg)
	if len(c.Shards) == 1 {
		return
	}

	// Lookahead: the latency floor of a cut fiber. On a hub the cuts are
	// host links, whose cheapest direction is adapter egress — one cell
	// time of serialization plus propagation. On a fat tree only trunk
	// fibers are cut, and a switch stages a trunk crossing when it
	// forwards the cell, under every discipline: the crossing first pays
	// the switch's forwarding latency.
	model := cfg.model()
	cell := cost.WireTime(atm.CellSize, model.ATMLinkBitsPS)
	c.lookahead = cell + model.ATMPropagation
	if cfg.Fabric == FabricFatTree {
		c.lookahead += l.Switch.Latency
	}
	// The earliest a staged cell's causal consequence can re-enter the
	// emitting shard, counted from its arrival on the far side of the cut:
	// because every egress pointed back at this shard is a switch forward
	// (the hub's port toward a cut host link, the spine toward a cut
	// trunk), the switch's forwarding latency, one cell serialization,
	// and propagation home. Anything the arrival influences acts no
	// earlier than the arrival itself, so this floor holds for perturbed
	// traffic as well as direct responses.
	c.boomerang = l.Switch.Latency + cell + model.ATMPropagation
}

// Cluster returns the executor this lab runs under — the cluster that
// built it, with one shard for a lab from New or NewTopology.
func (l *Lab) Cluster() *Cluster { return l.cluster }

// partitionHosts assigns each host a shard: unit 0 is shard 0 alone,
// and the remaining units split contiguously and near-evenly across
// shards 1..eff-1 (monotone, so same-shard hosts keep their relative
// construction order — the tie-break order serial execution uses). One
// shard holds every host.
func partitionHosts(nHosts, unitHosts, eff int) []int {
	hostShard := make([]int, nHosts)
	if eff == 1 {
		return hostShard
	}
	unitShard := make([]int, (nHosts+unitHosts-1)/unitHosts)
	rest, peers := len(unitShard)-1, eff-1
	base, rem := rest/peers, rest%peers
	u := 1
	for w := 0; w < peers; w++ {
		n := base
		if w < rem {
			n++
		}
		for k := 0; k < n; k++ {
			unitShard[u] = w + 1
			u++
		}
	}
	for i := range hostShard {
		hostShard[i] = unitShard[i/unitHosts]
	}
	return hostShard
}

// NumShards returns the effective shard count after clamping.
func (c *Cluster) NumShards() int { return len(c.Shards) }

// Lookahead returns the conservative safe-time window.
func (c *Cluster) Lookahead() sim.Time { return c.lookahead }

// Rounds returns how many barrier rounds this cluster has executed.
func (c *Cluster) Rounds() int64 { return c.rounds }

// EnvOf returns the event loop that owns host i. Workload generators
// spawn each host's processes on its owning shard's loop so that frame
// code reading p.Env() sees the clock the host lives on.
func (c *Cluster) EnvOf(i int) *sim.Env { return c.Shards[c.hostShard[i]].Env }

// stageCell implements atm.ShardPlan.StageCell: the sending shard's
// window parks the crossing cell in that shard's outbox, which only the
// next barrier drains.
func (c *Cluster) stageCell(srcShard, dstShard int, scheduleAt, at sim.Time, to atm.CellDest, cell atm.Cell) {
	// Dynamic horizon tightening (see horizonFor): this emission can
	// draw a causal response back into this shard no earlier than its
	// arrival plus the way back across the cut, so cap the window there —
	// from at (completion plus propagation), not scheduleAt: a cell
	// committed behind a backlog does nothing on the far side until it
	// gets there. Arrivals are not monotone across transmitters (each has
	// its own backlog), so every stage checks, not just the first.
	env := c.Shards[srcShard].Env
	if b := at + c.boomerang; b < env.Horizon() {
		env.SetHorizon(b)
	}
	c.outbox[srcShard] = append(c.outbox[srcShard], stagedCell{
		srcShard: srcShard, dstShard: dstShard,
		scheduleAt: scheduleAt, at: at, to: to, cell: cell,
	})
}

// applyStaged drains the staging areas at a round barrier: the fabric's
// queued routes first (VC installs must precede any cell that needs
// them), then the staged cells into per-destination pending buffers kept
// in canonical order — ascending arrival time, ties broken by schedule
// time, source shard, and emission order, which is exactly the order
// the serial run's event queue assigned sequence numbers to the same
// arrivals. Injection into the destination heap is deferred to
// injectPending: an event heap breaks same-time ties by insertion
// order, so equal-time arrivals staged in DIFFERENT rounds (shards
// reach the common emission instant in different windows) must wait in
// one buffer until the round that needs them, where they sort
// canonically. Deferral never reorders against later rounds: a cell
// injected below horizon H arrived strictly before H, and every cell a
// future round stages arrives at or after H. No window is running here,
// so the barrier may touch any shard's switches and event heap freely.
func (c *Cluster) applyStaged() {
	if f := c.Lab.Fabric; f != nil {
		f.FinishRoutes()
	}
	for d := range c.pendStart {
		c.pendStart[d] = len(c.pending[d])
	}
	for s := range c.outbox {
		c.cellsStaged += int64(len(c.outbox[s]))
		for _, m := range c.outbox[s] {
			c.pending[m.dstShard] = append(c.pending[m.dstShard], m)
		}
		c.outbox[s] = c.outbox[s][:0]
	}
	for d := range c.pending {
		insertStaged(c.pending[d], c.pendStart[d])
	}
}

// stagedBefore is the canonical cross-shard arrival order: ascending
// arrival time, ties broken by schedule time, then source shard.
func stagedBefore(a, b stagedCell) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.scheduleAt != b.scheduleAt {
		return a.scheduleAt < b.scheduleAt
	}
	return a.srcShard < b.srcShard
}

// insertStaged restores canonical order after appends: p[:from] is
// already sorted (the invariant injectPending preserves by consuming a
// prefix), so a stable insertion of the tail suffices — and unlike
// sort.SliceStable it allocates nothing, which matters at one call per
// destination per barrier round.
func insertStaged(p []stagedCell, from int) {
	for i := from; i < len(p); i++ {
		m := p[i]
		j := i - 1
		for j >= 0 && stagedBefore(m, p[j]) {
			p[j+1] = p[j]
			j--
		}
		p[j+1] = m
	}
}

// injectPending schedules shard s's pending arrivals strictly below
// horizon h into its heap, in canonical order, and retains the rest for
// a later round (the shard executes strictly below h, so nothing at or
// beyond h can be missed this window). Each arrival moves from the
// reused pending buffer into the shard's inbox, which outlives it.
func (c *Cluster) injectPending(s int, h sim.Time) {
	pend := c.pending[s]
	env := c.Shards[s].Env
	in := &c.inbox[s]
	k := 0
	for k < len(pend) && pend[k].at < h {
		m := &pend[k]
		env.AtArg(m.at, "xshard.cellin", in.fire, in.park(m.to, m.cell))
		k++
	}
	if k > 0 {
		c.pending[s] = append(pend[:0], pend[k:]...)
	}
}

// nextTimes fills c.next with each shard's earliest future action — the
// head of its event heap or of its pending-arrival buffer, whichever is
// sooner (sim.MaxTime when both are empty). Counting un-injected
// arrivals is what keeps the horizon math sound under deferred
// injection: a peer's horizon is derived from this shard's earliest
// possible action, and a pending arrival is exactly such an action. It
// returns the round's earliest action lo (sim.MaxTime when no shard has
// work at all), the shard loAt holding it, and lo2, the earliest among
// the other shards — all horizonFor needs, from one pass.
func (c *Cluster) nextTimes() (lo sim.Time, loAt int, lo2 sim.Time) {
	lo, lo2 = sim.MaxTime, sim.MaxTime
	for i, sh := range c.Shards {
		t, ok := sh.Env.NextEventAt()
		if !ok {
			t = sim.MaxTime
		}
		if p := c.pending[i]; len(p) > 0 && p[0].at < t {
			t = p[0].at
		}
		c.next[i] = t
		if t < lo {
			lo, loAt, lo2 = t, i, lo
		} else if t < lo2 {
			lo2 = t
		}
	}
	return lo, loAt, lo2
}

// horizonFor returns shard i's static safe-execution bound for the
// round: the earliest event any OTHER shard holds at the barrier — lo,
// or lo2 for the shard that holds lo itself (see nextTimes) — plus the
// minimum cross-shard latency. Shard i's own events never bound it —
// everything it emits to itself is already in its heap in order. This
// per-shard horizon (rather than one global min+L window) is what lets
// a busy shard stream through long stretches of local work in a single
// round while its peers sit at far-future timestamps; with only one
// shard holding events at all, that shard runs unbounded.
//
// The static bound alone is unsound: it ignores causal chains the shard
// itself starts mid-round. A cell it stages to arrive at t can wake a
// far-future peer and draw a response back at t plus the way home across
// the cut — inside its own supposedly-safe window. stageCell closes that
// hole dynamically by tightening the emitting shard's horizon to
// t + boomerang, the provable floor on that return. Chains through
// an intermediary are covered by the static term of the ORIGIN shard:
// whatever shard k emits this round is emitted at or after k's first
// event, so it lands in any third shard no earlier than that shard's
// static horizon. Progress is preserved under both terms — each exceeds
// the globally earliest event time, so every round retires at least one
// event.
func (c *Cluster) horizonFor(i int, lo sim.Time, loAt int, lo2 sim.Time) sim.Time {
	minOther := lo
	if i == loAt {
		minOther = lo2
	}
	if minOther == sim.MaxTime {
		return sim.MaxTime
	}
	return minOther + c.lookahead
}

// Run drives every shard's event loop to completion, round by round, on
// the calling goroutine. Each barrier finishes the fabric's queued
// routes and drains the staged cells; then every shard's horizon is set,
// its pending arrivals below it injected, and its window run if it holds
// an event below it, in shard order.
func (c *Cluster) Run() {
	if len(c.Shards) == 1 {
		c.Lab.Env.Run()
		return
	}
	for {
		c.applyStaged()
		if c.Lab.wd != nil && c.Lab.wd.Fired() {
			// A fired watchdog makes every shard's RunWindow return
			// without retiring events; without this break the barrier
			// loop would spin through empty rounds forever — the very
			// hang the watchdog exists to prevent.
			break
		}
		lo, loAt, lo2 := c.nextTimes()
		if lo == sim.MaxTime {
			break // every heap empty, nothing staged: the run is done
		}
		// Why a per-shard horizon is safe: shard i only processes events
		// strictly before H_i = min over k≠i of next_k, plus L. Any cell
		// shard k emits this round is emitted at a time >= next_k (its own
		// first event) and arrives at >= next_k + L >= H_i for every other
		// shard i — never inside a window a peer runs this round, so the
		// barrier always injects it into the peer's future. A shard with
		// no event below its horizon is skipped: its window would retire
		// nothing. The shard holding lo always runs (its horizon is
		// lo2 + L, past lo), so every round retires at least one event.
		c.rounds++
		for s, sh := range c.Shards {
			h := c.horizonFor(s, lo, loAt, lo2)
			c.injectPending(s, h)
			sh.Env.SetHorizon(h)
			if c.next[s] < h {
				sh.Env.RunWindow()
			}
		}
	}
	for _, sh := range c.Shards {
		sh.Env.SetHorizon(sim.MaxTime)
	}
}

// Reset rebinds the assembled testbed to a new trial configuration
// instead of reallocating it: the event heaps' backing stores, the mbuf
// pools' free-lists, every wait queue with its parked service process,
// the adapters, the switch VC tables, and the Ethernet segment bindings
// all survive; every piece of per-trial state — clocks, RNGs, PCB tables,
// listeners, port/ISS counters, trace records, FIFO contents, statistics,
// staged cells — rewinds to what a freshly built testbed would hold, on
// every shard. A nonzero seed overrides cfg.Seed (the runner.ApplySeed
// convention).
//
// The contract is bit-identity: a reset testbed must produce
// byte-identical results to a fresh build of the same shape at every
// seed, which the reuse-determinism tests assert against the golden
// outputs. Reset only rebinds within a shape — the link kind, host count,
// switch arrangement, and shard count are the machines and wiring on the
// bench, not knobs — so asking for a different link or fabric is an error
// and the caller builds a new testbed instead (Testbeds keys its cache
// accordingly). Every quantity lab derives from the configuration lives
// in configure, which build and Reset both end with; the layers below
// re-derive theirs from the model their own Reset takes. Nothing is
// computed from cfg at construction only, so nothing can go stale here.
//
// The loops' scratch arenas follow the same retain-what-is-warm rule,
// moved from the host to the loop: buffers stay pooled across the rewind.
// A trial that ended with a frame stuck mid-reassembly (its last cell
// lost under burst loss, or cut off by a link fault) still has that
// frame's buffer checked out, so the hosts are rewound first — the
// driver's Reset hands it back — and only then is a loop that still
// counts a checkout refused, the way one with events pending is: nothing
// legitimate holds scratch across a rewind.
func (c *Cluster) Reset(cfg Config, seed uint64) error {
	if seed != 0 {
		cfg.Seed = seed
	}
	l := c.Lab
	if err := cfg.Validate(len(l.Hosts), len(c.Shards)); err != nil {
		return err
	}
	if is, to := l.Config.Shape(len(l.Hosts), len(c.Shards)), cfg.Shape(len(l.Hosts), len(c.Shards)); to != is {
		return fmt.Errorf("lab: cannot reset a %+v testbed to %+v", is, to)
	}
	for s, sh := range c.Shards {
		if n := sh.Env.Pending(); n != 0 {
			// The previous trial never drained its event loop (it errored or
			// was abandoned mid-run); resetting would strand scheduled work.
			return fmt.Errorf("lab: cannot reset with %d events pending in shard %d", n, s)
		}
	}
	model := cfg.model()
	for _, h := range l.Hosts {
		rewindHost(h, model)
	}
	if l.Fabric != nil {
		l.Fabric.Reset(model)
	}
	if l.Segment != nil {
		l.Segment.Reset()
	}
	for s, sh := range c.Shards {
		if n := sh.Env.Arena().Outstanding(); n != 0 {
			return fmt.Errorf("lab: cannot reset with %d scratch buffers still checked out in shard %d", n, s)
		}
		sh.Env.Reset()
	}
	for s := range c.outbox {
		c.outbox[s] = c.outbox[s][:0]
		c.pending[s] = c.pending[s][:0]
	}
	l.eventsSince = 0
	l.faultState = nil // outage refcounts and hooks are per-trial
	l.wd = nil
	c.configure(cfg)
	return nil
}
