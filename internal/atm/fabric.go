package atm

import (
	"fmt"
	"sort"

	"repro/internal/cost"
	"repro/internal/sim"
)

// Routed fabrics: multi-switch ATM topologies with on-demand VC setup.
//
// The paper's testbed is two hosts on one fiber; scaling its workloads to
// thousands of hosts needs a switched fabric, and building that fabric
// eagerly costs O(hosts²) VC state — the reason large topologies used to
// exhaust memory before simulating a single cell. A Fabric instead keeps
// only a routing view of the topology (which switch and port each host
// sits on) and installs a flow's VC path through the switches the first
// time a datagram heads to that destination, asked by the driver, which
// keeps a pointer back to its fabric and its host number there. The route
// it installs is also the flow's transmit channel: the driver cuts the
// flow's cells with the route's segmenter, so a removed route takes its
// channel with it, at both ends, as an ATM RELEASE clears a call.
// Signaling is modeled as instantaneous, so the lazily built
// fabric is event-for-event identical to an eagerly meshed one; what
// changes is that memory follows *active* communication pairs.

// FabricKind selects the switch arrangement of a routed fabric.
type FabricKind int

const (
	// FabricHub is a single switch with every host attached — the
	// classic hub-and-spoke building network, and the shape whose
	// single-switch behaviour must stay bit-identical to the old eager
	// mesh.
	FabricHub FabricKind = iota
	// FabricFatTree is a two-level tree: hosts attach to leaf switches
	// (LeafPorts per leaf), and every leaf trunks to one spine switch.
	// Cross-leaf flows traverse leaf → spine → leaf and contend for the
	// trunk links, as in a building backbone.
	FabricFatTree
)

// String names the fabric kind for labels and errors.
func (k FabricKind) String() string {
	switch k {
	case FabricHub:
		return "hub"
	case FabricFatTree:
		return "fattree"
	default:
		return fmt.Sprintf("FabricKind(%d)", int(k))
	}
}

// DefaultLeafPorts is the fat-tree hosts-per-leaf when the caller does
// not choose one: the port count of a mid-90s workgroup ATM switch.
const DefaultLeafPorts = 64

// flowKey identifies a unidirectional host-to-host flow by host index.
type flowKey struct{ src, dst int }

// hop is one switch VC entry on a flow's path — its ingress port and VCI —
// with the allocator to refund that VCI to when the path is removed (nil
// for fixed host-link VCIs).
type hop struct {
	sw    *Switch
	alloc *vciAlloc
	port  int32
	vci   uint16
}

// route is an installed flow path and the flow's transmit channel: seg,
// the segmenter the source host's driver cuts the flow's cells with (its
// VCI the one the source transmits on; its Btag and SAR sequence numbers
// on the wire), the VCI the destination host receives on (naming the
// source, as the legacy mesh did), and the switch entries in path order —
// one on a single switch, three across a fat tree — in hops[:n], so that
// a route is one allocation.
type route struct {
	hops  [3]hop
	seg   Segmenter
	n     uint8
	rxVCI uint16
}

// add appends h to the path.
func (rt *route) add(h hop) {
	rt.hops[rt.n] = h
	rt.n++
}

// routeTable is one shard's installed flow paths: the flow map, and the
// routes it points to in a slab, where a removed route's slot goes to the
// next install. A route never moves while installed — a queued route is
// held by pointer until the barrier finishes it, and a driver its
// segmenter — so a full slab is replaced, not grown (see slabChunk). A
// removed route's slot may be handed out again at once: removal first
// takes the channel out of its source driver's hands (Fabric.removeRoute).
// Only the shard that owns the table writes it inside a round; the
// coordinator drains queued at the barrier.
type routeTable struct {
	m    map[flowKey]*route
	slab []route
	free []*route // removed routes, zeroed
	// queued holds the routes whose walk stopped at a switch behind a
	// cut, in install order, for FinishRoutes.
	queued []queuedRoute
}

// queuedRoute is a route part-way installed: hops rt.hops[:rt.n] are in
// place, and the flow enters hop rt.n on vci.
type queuedRoute struct {
	key flowKey
	rt  *route
	vci uint16
}

// add makes the route for key, which must not be installed.
func (t *routeTable) add(key flowKey) *route {
	var rt *route
	if n := len(t.free); n > 0 {
		rt, t.free = t.free[n-1], t.free[:n-1]
	} else {
		if len(t.slab) == cap(t.slab) {
			t.slab = make([]route, 0, slabChunk(cap(t.slab)))
		}
		t.slab = t.slab[:len(t.slab)+1]
		rt = &t.slab[len(t.slab)-1]
	}
	t.m[key] = rt
	return rt
}

// del forgets key's route rt and frees its slot.
func (t *routeTable) del(key flowKey, rt *route) {
	delete(t.m, key)
	*rt = route{}
	t.free = append(t.free, rt)
}

// fabricHost locates one host in the fabric.
type fabricHost struct {
	drv  *Driver
	sw   *Switch
	leaf int // leaf index, or -1 on a hub
	port int // host's port on sw
}

// Fabric is a routed multi-switch topology over a set of host drivers.
// It owns the switches, knows where every host attaches, and holds every
// flow's transmit channel in the flow's route (setup): VC paths through
// the switches exist only for flows that have actually carried traffic.
// A path, once installed, stands until a fault fails one of its hosts'
// ports (FailHostPort).
type Fabric struct {
	Kind FabricKind
	// Core is the single switch of a hub fabric or the spine of a
	// fat tree; Leaves are the fat tree's leaf switches (nil for a hub).
	Core   *Switch
	Leaves []*Switch

	hosts  []fabricHost
	byAddr map[uint32]int

	// leafUp[i] is leaf i's trunk port toward the spine; coreDown[i] is
	// the spine's port toward leaf i.
	leafUp   []int
	coreDown []int

	// plan is the shard wiring the fabric was built across (one env for a
	// serial fabric). routes remembers every installed flow path, and
	// queues those waiting for the barrier, partitioned by the *source*
	// host's shard so that concurrent shards never touch one table: the
	// source's driver is the one writer of a route's segmenter. Routes
	// survive testbed Reset — routing is topology once installed — with
	// their segmenters rewound.
	plan   *ShardPlan
	routes []routeTable

	// VCsTornDown counts paths removed by FailHostPort over the route
	// memory's life (which spans Resets).
	VCsTornDown int64
}

// CellDest is a shard-boundary delivery target — the far end of a cut
// fiber. The cluster coordinator injects each staged cell into the
// destination shard through it at the staged arrival time.
type CellDest interface{ InjectCell(c Cell) }

// ShardPlan says which event loop every piece of a fabric runs on. A
// serial fabric is the plan with one env and an all-zero HostShard:
// nothing is cut, so StageCell is never called and may stay nil. With
// more envs the plan wires the fabric across shard boundaries for
// deterministic parallel execution (lab.Cluster). Fibers whose two ends
// land in different shards are cut: the sending side stages each cell
// with the coordinator instead of delivering it. A route whose path
// reaches a switch outside the calling host's shard waits in that shard's
// route table for the coordinator to finish it at the next round barrier
// (FinishRoutes) — before any staged cell is injected, and so strictly
// before the first data cell of the flow can cross the cut (the cut
// itself delays that cell by at least the lookahead).
type ShardPlan struct {
	// Envs[s] is shard s's event loop. Shard 0 also hosts the core
	// switch (hub or spine).
	Envs []*sim.Env
	// HostShard[i] is the shard of host i. For a fat tree the partition
	// must be leaf-aligned: every host of one leaf in one shard.
	HostShard []int
	// StageCell stages one cell crossing from srcShard to dstShard. at is
	// the far-end arrival time, and scheduleAt is when the serial run
	// would have created the arrival event — the coordinator's tie-break
	// among equal arrivals (see Port.SetCut).
	StageCell func(srcShard, dstShard int, scheduleAt, at sim.Time, to CellDest, c Cell)
}

// NewFabric builds the switches for kind across the plan's event loops,
// attaches every driver's adapter, and points each driver back at the
// fabric for its on-demand VCs: the core (hub or spine) lives in shard
// 0's environment, each fat-tree leaf in its hosts' shard, and every
// fiber crossing a shard boundary is cut (see ShardPlan). leafPorts only matters for
// FabricFatTree; zero means DefaultLeafPorts. The model prices every
// link, as Reset does again for the next trial's model.
func NewFabric(plan *ShardPlan, kind FabricKind, model *cost.Model, leafPorts int, drvs []*Driver) *Fabric {
	f := &Fabric{
		Kind:   kind,
		hosts:  make([]fabricHost, len(drvs)),
		byAddr: make(map[uint32]int, len(drvs)),
		plan:   plan,
		routes: make([]routeTable, len(plan.Envs)),
	}
	for s := range f.routes {
		f.routes[s].m = make(map[flowKey]*route)
	}
	switch kind {
	case FabricHub:
		f.Core = newSwitch(plan.Envs[0], len(drvs))
		for i, d := range drvs {
			port := f.Core.AttachPort(d.Adapter)
			f.hosts[i] = fabricHost{drv: d, sw: f.Core, leaf: -1, port: port}
			if s := plan.HostShard[i]; s != 0 {
				cutFiber(plan, s, d.Adapter, f.Core.ports[port])
			}
		}
	case FabricFatTree:
		if leafPorts <= 0 {
			leafPorts = DefaultLeafPorts
		}
		nLeaves := (len(drvs) + leafPorts - 1) / leafPorts
		f.Core = newSwitch(plan.Envs[0], nLeaves)
		f.Leaves = make([]*Switch, nLeaves)
		f.leafUp = make([]int, nLeaves)
		f.coreDown = make([]int, nLeaves)
		for li := range f.Leaves {
			ls := plan.HostShard[li*leafPorts]
			hosts := min(leafPorts, len(drvs)-li*leafPorts)
			leaf := newSwitch(plan.Envs[ls], hosts+1) // and the trunk
			f.Leaves[li] = leaf
			for i := li * leafPorts; i < (li+1)*leafPorts && i < len(drvs); i++ {
				if plan.HostShard[i] != ls {
					panic(fmt.Sprintf("atm: host %d on leaf %d is in shard %d, leaf is in shard %d (partition must be leaf-aligned)",
						i, li, plan.HostShard[i], ls))
				}
				port := leaf.AttachPort(drvs[i].Adapter)
				f.hosts[i] = fabricHost{drv: drvs[i], sw: leaf, leaf: li, port: port}
			}
			f.leafUp[li], f.coreDown[li] = ConnectTrunk(leaf, f.Core, model)
			if ls != 0 {
				cutFiber(plan, ls, leaf.ports[f.leafUp[li]], f.Core.ports[f.coreDown[li]])
			}
		}
	default:
		panic(fmt.Sprintf("atm: unknown fabric kind %d", int(kind)))
	}
	for i, d := range drvs {
		f.byAddr[d.IP.Addr] = i
		d.fabric, d.host = f, i
	}
	return f
}

// cutEnd is one end of a fiber that can cross a shard boundary — a host
// adapter or a switch port: it stages its egress and takes injected
// arrivals.
type cutEnd interface {
	CellDest
	SetCut(stage func(scheduleAt, at sim.Time, c Cell))
}

// cutFiber cuts the fiber between near (in shard s) and far (in shard 0,
// with the core) in both directions.
func cutFiber(plan *ShardPlan, s int, near, far cutEnd) {
	near.SetCut(func(scheduleAt, at sim.Time, c Cell) {
		plan.StageCell(s, 0, scheduleAt, at, far, c)
	})
	far.SetCut(func(scheduleAt, at sim.Time, c Cell) {
		plan.StageCell(0, s, scheduleAt, at, near, c)
	})
}

// NumHosts returns how many hosts the fabric serves.
func (f *Fabric) NumHosts() int { return len(f.hosts) }

// NumRoutes returns how many flow paths are currently installed — the
// fabric-wide measure of active communication pairs.
func (f *Fabric) NumRoutes() int {
	n := 0
	for s := range f.routes {
		n += len(f.routes[s].m)
	}
	return n
}

// NumRoutesFrom returns how many flow paths host i sources: its transmit
// channels, O(peers it has sent to) under on-demand setup.
func (f *Fabric) NumRoutesFrom(i int) int {
	n := 0
	for k := range f.routes[f.plan.HostShard[i]].m {
		if k.src == i {
			n++
		}
	}
	return n
}

// VCsSetUp returns how many flow paths have ever been installed: those
// standing plus those removed.
func (f *Fabric) VCsSetUp() int64 { return int64(f.NumRoutes()) + f.VCsTornDown }

// TotalVCs sums the VC table entries across every switch in the fabric.
func (f *Fabric) TotalVCs() int {
	n := f.Core.NumVCs()
	for _, leaf := range f.Leaves {
		n += leaf.NumVCs()
	}
	return n
}

// Reset rewinds every switch for testbed reuse and prices every link —
// host ports and trunks alike — from the next trial's model, as NewFabric
// priced them from the first. Installed routes survive (see the routes
// field), and each route's segmenter rewinds: its Btag and sequence
// numbers are on the wire, and a reused testbed's first cells must match
// a fresh one's.
func (f *Fabric) Reset(model *cost.Model) {
	f.Core.Reset()
	f.Core.price(model)
	for _, leaf := range f.Leaves {
		leaf.Reset()
		leaf.price(model)
	}
	for s := range f.routes {
		for _, rt := range f.routes[s].m {
			rt.seg.Reset()
		}
	}
}

// setup installs (or finds) the route from host src to the host owning
// dstAddr and returns it — its segmenter is the flow's transmit channel —
// or nil when no other host owns dstAddr. Host-facing links keep the
// legacy source-naming convention — src transmits on DefaultVCI+dst, the
// destination receives on DefaultVCI+src — so a hub fabric's wire bytes
// are byte-identical to the old eager mesh. Trunk hops use per-link
// allocated VCIs, invisible to hosts.
//
// The path is one walk (see walk): hops on the caller's event loop
// install now, and at the first hop behind a cut the route waits in the
// caller's route table for the barrier. On a one-env plan every switch is
// on the caller's loop, so every route completes here.
func (f *Fabric) setup(src int, dstAddr uint32) *route {
	dst, ok := f.byAddr[dstAddr]
	if !ok || dst == src {
		return nil
	}
	s := f.plan.HostShard[src]
	rm := &f.routes[s]
	key := flowKey{src, dst}
	if rt, ok := rm.m[key]; ok {
		return rt
	}
	rt := rm.add(key)
	rt.seg.VCI, rt.rxVCI = DefaultVCI+uint16(dst), DefaultVCI+uint16(src)
	if vci, done := f.walk(f.plan.Envs[s], key, rt, rt.seg.VCI); !done {
		rm.queued = append(rm.queued, queuedRoute{key, rt, vci})
	}
	return rt
}

// Connect installs the route from host src to host dst, as the first
// datagram between them would, and reports whether there is one. A
// testbed pre-meshed with it is event-for-event the on-demand one: setup
// charges no simulated time.
func (f *Fabric) Connect(src, dst int) bool {
	return f.setup(src, f.hosts[dst].drv.IP.Addr) != nil
}

// FinishRoutes completes every queued route with the same walk, in
// (source shard, queue order), and returns how many it finished. The
// cluster coordinator calls it at each round barrier, before it injects
// any staged cell: a route waits only at a switch behind a cut from its
// source, which the flow's first data cell must cross too, so the route
// is always whole before that cell arrives. The order makes the trunk
// VCIs a pure function of the simulation, though not necessarily the
// numbers a serial run picks — which is invisible: VCI values appear in
// no result, trace or counter; only the path shape and timing do.
func (f *Fabric) FinishRoutes() int {
	n := 0
	for s := range f.routes {
		rm := &f.routes[s]
		for _, q := range rm.queued {
			f.walk(nil, q.key, q.rt, q.vci)
		}
		n += len(rm.queued)
		rm.queued = rm.queued[:0]
	}
	return n
}

// pathHop is one switch on a flow's path: the ports the flow enters and
// leaves by, and the allocator of the link it leaves on (nil toward the
// destination host, whose VCI names the source instead).
type pathHop struct {
	sw      *Switch
	in, out int
	alloc   *vciAlloc
}

// walk installs key's route rt from hop rt.n on, the flow entering that
// hop on vci, and reports whether the route is whole. A hub or same-leaf
// route is one hop; a cross-leaf route is three — source leaf, spine,
// destination leaf — with one allocated VCI per trunk (the reassembler
// demultiplexes on VCI alone, so flows sharing a trunk cannot share one).
// With env set, the walk stops at the first switch not on env — one
// behind a cut from the caller — and returns the VCI to resume with; a
// hop on the caller's loop is reachable within the current window, so it
// cannot wait. The source leaf shares its hosts' loop (the partition is
// leaf-aligned), so the up-trunk VCI the first cell carries is always
// chosen at once. A nil env is the barrier: every remaining hop installs.
func (f *Fabric) walk(env *sim.Env, key flowKey, rt *route, vci uint16) (uint16, bool) {
	hs, hd := &f.hosts[key.src], &f.hosts[key.dst]
	var path [3]pathHop
	n := 1
	if hs.sw == hd.sw {
		path[0] = pathHop{sw: hs.sw, in: hs.port, out: hd.port}
	} else {
		up, down := f.leafUp[hs.leaf], f.coreDown[hd.leaf]
		path[0] = pathHop{sw: hs.sw, in: hs.port, out: up, alloc: hs.sw.ports[up].vci}
		path[1] = pathHop{sw: f.Core, in: f.coreDown[hs.leaf], out: down, alloc: f.Core.ports[down].vci}
		path[2] = pathHop{sw: hd.sw, in: f.leafUp[hd.leaf], out: hd.port}
		n = 3
	}
	var in *vciAlloc // the allocator vci came from
	if rt.n > 0 {
		in = path[rt.n-1].alloc
	}
	for _, h := range path[rt.n:n] {
		if env != nil && h.sw.env != env {
			return vci, false
		}
		out := rt.rxVCI
		if h.alloc != nil {
			out = h.alloc.get()
		}
		h.sw.AddVC(h.in, vci, h.out, out)
		rt.add(hop{sw: h.sw, port: int32(h.in), vci: vci, alloc: in})
		vci, in = out, h.alloc
	}
	return vci, true
}

// removeRoute removes key's route rt, releasing the call at both ends:
// every switch entry goes away, trunk VCIs return to their links' pools,
// the source's driver lets go of the transmit channel, and the
// destination's reassembly context is reclaimed (unless a datagram is
// mid-flight on it, in which case the context stays until the channel is
// next reclaimed). An Output the source has parked mid-frame on the
// channel keeps a copy of it in the driver's seg, so it finishes the
// frame on the removed VCI while the route's slot goes to the next
// install.
func (f *Fabric) removeRoute(rm *routeTable, key flowKey, rt *route) {
	for _, h := range rt.hops[:rt.n] {
		h.sw.RemoveVC(int(h.port), h.vci)
		if h.alloc != nil {
			h.alloc.put(h.vci)
		}
	}
	src := f.hosts[key.src].drv
	if src.tx == &rt.seg {
		src.seg = rt.seg
		src.tx = &src.seg
	}
	f.hosts[key.dst].drv.DropRx(rt.rxVCI)
	rm.del(key, rt)
	f.VCsTornDown++
}

// HostPort returns host i's access port on its switch (the hub core or
// its fat-tree leaf).
func (f *Fabric) HostPort(i int) *Port {
	h := &f.hosts[i]
	return h.sw.ports[h.port]
}

// FailHostPort fails host i's switch access port (fault injection): the
// port goes down, and every installed VC path with i as source or
// destination is removed — switch entries, trunk VCIs, the source's
// transmit channel, the destination's idle reassembler. Cells still
// crossing the fabric on a removed path are discarded as unrouted. Peers
// recover through the same on-demand machinery: their next datagram to or
// from i installs the path afresh, with fresh sequence numbers, and it
// carries traffic once the port is restored.
//
// It is refused, with a panic, on a plan with more than one env: removing
// a path at a barrier boundary would unroute cells the serial run
// delivered, breaking bit-identity, and sharded runs reject port-failure
// faults when they are scheduled.
func (f *Fabric) FailHostPort(i int) {
	if n := len(f.plan.Envs); n > 1 {
		panic(fmt.Sprintf("atm: FailHostPort for host %d on a fabric sharded %d ways; routes are only removed on one event loop", i, n))
	}
	rm := &f.routes[0]
	f.HostPort(i).SetDown(true)
	keys := make([]flowKey, 0, 8)
	for k := range rm.m {
		if k.src == i || k.dst == i {
			keys = append(keys, k)
		}
	}
	// Map iteration order is random; remove in canonical order so VCI
	// pool refunds (and thus later allocations) stay deterministic.
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].src != keys[b].src {
			return keys[a].src < keys[b].src
		}
		return keys[a].dst < keys[b].dst
	})
	for _, k := range keys {
		f.removeRoute(rm, k, rm.m[k])
	}
}

// RestoreHostPort brings a failed access port back; removed paths
// reinstall on demand when traffic next flows.
func (f *Fabric) RestoreHostPort(i int) {
	f.HostPort(i).SetDown(false)
}
