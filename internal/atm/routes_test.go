package atm

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// The fabric's conservation law: every VC table entry and every trunk
// VCI out belongs to exactly one installed route, and a route — the
// flow's transmit channel — exists for every flow installed and not since
// removed. refFabric is the flow map that law is checked against — routes
// as (src, dst) pairs — and FuzzFabricRoutes drives the real fabric and
// the reference through the same arbitrary sequence of installs (through
// Driver.segFor), port failures and restores. On a two-env plan
// an install whose path reaches a switch across the cut stays queued
// until a simulated barrier (Fabric.FinishRoutes), and the switch tables
// are checked after each barrier.

// refFabric is the reference: which flows have a route, how many routes
// were ever installed, and how many wait for the barrier.
type refFabric struct {
	leafOf   []int // a host's leaf; all zero on a hub
	shardOf  []int // a host's shard
	hub      bool
	routes   map[flowKey]bool
	installs int64
	queued   int
}

func newRefFabric(f *Fabric, plan *ShardPlan) *refFabric {
	n := f.NumHosts()
	r := &refFabric{leafOf: make([]int, n), shardOf: plan.HostShard, hub: f.Leaves == nil,
		routes: map[flowKey]bool{}}
	for i := range r.leafOf {
		r.leafOf[i] = max(f.hosts[i].leaf, 0)
	}
	return r
}

// install is Driver.segFor as the reference sees it: the flow's route is
// its channel, installed unless one stands. The route waits for the
// barrier when its path reaches a switch off the source's loop: the hub or
// the spine (shard 0's) from another shard, or a destination leaf in
// another shard.
func (r *refFabric) install(src, dst int) {
	if k := (flowKey{src, dst}); !r.routes[k] {
		r.routes[k] = true
		r.installs++
		crossLeaf := !r.hub && r.leafOf[src] != r.leafOf[dst]
		viaCore := r.hub || crossLeaf
		if viaCore && r.shardOf[src] != 0 || crossLeaf && r.shardOf[dst] != 0 {
			r.queued++
		}
	}
}

// fail removes every route to or from host i, and with them the sources'
// transmit channels: the next datagram on such a flow installs it again.
func (r *refFabric) fail(i int) {
	for k := range r.routes {
		if k.src == i || k.dst == i {
			delete(r.routes, k)
		}
	}
}

// barrier is the coordinator's: the fabric must finish exactly the routes
// the reference expects queued.
func (r *refFabric) barrier(t *testing.T, step int, f *Fabric) {
	t.Helper()
	if got := f.FinishRoutes(); got != r.queued {
		t.Fatalf("step %d: the barrier finished %d routes, reference queued %d", step, got, r.queued)
	}
	r.queued = 0
}

// check holds the fabric to the reference: the route counts, fabric-wide
// and per source, always; the switch tables and trunk VCIs when no route
// waits for the barrier.
func (r *refFabric) check(t *testing.T, step int, f *Fabric) {
	t.Helper()
	if got := f.NumRoutes(); got != len(r.routes) {
		t.Fatalf("step %d: fabric holds %d routes, reference %d", step, got, len(r.routes))
	}
	if got := f.VCsSetUp(); got != r.installs {
		t.Fatalf("step %d: VCsSetUp = %d, reference installed %d", step, got, r.installs)
	}
	from := make([]int, f.NumHosts())
	for k := range r.routes {
		from[k.src]++
	}
	for i, want := range from {
		if got := f.NumRoutesFrom(i); got != want {
			t.Fatalf("step %d: host %d sources %d routes, reference %d", step, i, got, want)
		}
	}
	if r.queued > 0 {
		return
	}
	// Hops a switch carries, and VCIs out on each trunk direction.
	hops := map[*Switch]int{}
	up, down := map[int]int{}, map[int]int{}
	for k := range r.routes {
		ls, ld := r.leafOf[k.src], r.leafOf[k.dst]
		switch {
		case r.hub:
			hops[f.Core]++
		case ls == ld:
			hops[f.Leaves[ls]]++
		default:
			hops[f.Leaves[ls]]++
			hops[f.Core]++
			hops[f.Leaves[ld]]++
			up[ls]++
			down[ld]++
		}
	}
	for _, sw := range append([]*Switch{f.Core}, f.Leaves...) {
		if got := sw.NumVCs(); got != hops[sw] {
			t.Fatalf("step %d: a switch holds %d VC entries, its routes' hops are %d", step, got, hops[sw])
		}
	}
	// Each route's hops, and the link each hop's VCI is refunded to when
	// the route is removed: none for the host link, then the trunks.
	for s := range f.routes {
		for k, rt := range f.routes[s].m {
			refund := []*vciAlloc{nil}
			if ls, ld := r.leafOf[k.src], r.leafOf[k.dst]; !r.hub && ls != ld {
				refund = append(refund, f.Leaves[ls].ports[f.leafUp[ls]].vci, f.Core.ports[f.coreDown[ld]].vci)
			}
			if int(rt.n) != len(refund) {
				t.Fatalf("step %d: route %v has %d hops, want %d", step, k, rt.n, len(refund))
			}
			for i, a := range refund {
				if rt.hops[i].alloc != a {
					t.Fatalf("step %d: route %v's hop %d refunds its VCI to the wrong link", step, k, i)
				}
			}
		}
	}
	for li, leaf := range f.Leaves {
		if got := leaf.ports[f.leafUp[li]].vci.out(); got != up[li] {
			t.Fatalf("step %d: leaf %d's up trunk has %d VCIs out, %d routes cross it", step, li, got, up[li])
		}
		if got := f.Core.ports[f.coreDown[li]].vci.out(); got != down[li] {
			t.Fatalf("step %d: the spine's trunk to leaf %d has %d VCIs out, %d routes cross it", step, li, got, down[li])
		}
	}
}

// out returns how many VCIs the allocator has handed out and not had
// back.
func (a *vciAlloc) out() int {
	if a.next == 0 {
		return 0
	}
	return int(a.next-DefaultVCI) - len(a.free)
}

// Route operations, one per three script bytes: an op, then two operands.
const (
	routeInstall = iota // host a sends to host b (b = n: an address no host owns)
	routeFail           // host a's access port fails (one env only)
	routeRestore        // and comes back
	routeOps

	barrierEvery = 4 // operations between simulated barriers
)

// routePlan returns the shape runRoutes drives — a hub of 6 hosts, or a
// fat tree of 8 at 3 a leaf — on one env, or on two split as a cluster
// splits them: the first unit (host, or leaf of 3) in shard 0 with the
// core switch, the rest in shard 1.
func routePlan(fatTree, sharded bool) (*ShardPlan, FabricKind, int) {
	kind, leafPorts, n, unit := FabricHub, 0, 6, 3
	if fatTree {
		kind, leafPorts, n = FabricFatTree, 3, 8
	}
	plan := &ShardPlan{Envs: []*sim.Env{sim.NewEnv()}, HostShard: make([]int, n)}
	if sharded {
		plan.Envs = append(plan.Envs, sim.NewEnv())
		for i := unit; i < n; i++ {
			plan.HostShard[i] = 1
		}
	}
	return plan, kind, leafPorts
}

// runRoutes builds the fabric on its plan and drives it and the reference
// through script, with a barrier every barrierEvery operations and at the
// end, checking after every operation. On one env it ends by failing every
// host's port and checks the fabric holds no VC entry and no trunk VCI.
func runRoutes(t *testing.T, fatTree, sharded bool, script []byte) {
	plan, kind, leafPorts := routePlan(fatTree, sharded)
	f, _, _, drvs, _ := buildFabricOn(t, plan, kind, leafPorts)
	n := len(drvs)
	r := newRefFabric(f, plan)
	addr := func(i int) uint32 { return uint32(i + 1) } // buildFabricOn's addressing
	for step := 0; step+2 < len(script); step += 3 {
		op, a, b := int(script[step])%routeOps, int(script[step+1])%n, int(script[step+2])
		switch op {
		case routeInstall:
			dst := b % (n + 1)
			seg := drvs[a].segFor(addr(dst))
			if dst == a || dst == n {
				if seg != nil {
					t.Fatalf("step %d: host %d has a VC to %#x, which no other host owns", step/3, a, addr(dst))
				}
				break
			}
			r.install(a, dst)
			if rt := f.routes[plan.HostShard[a]].m[flowKey{a, dst}]; seg == nil || rt == nil || seg != &rt.seg || seg.VCI != DefaultVCI+uint16(dst) {
				t.Fatalf("step %d: host %d's channel to host %d is %v, want its route's, on VCI %d", step/3, a, dst, seg, DefaultVCI+dst)
			}
		case routeFail:
			if !sharded {
				f.FailHostPort(a)
				r.fail(a)
			}
		case routeRestore:
			f.RestoreHostPort(a)
		}
		if step/3%barrierEvery == barrierEvery-1 {
			r.barrier(t, step/3, f)
		}
		r.check(t, step/3, f)
	}
	r.barrier(t, len(script)/3, f)
	r.check(t, len(script)/3, f)
	if sharded {
		return
	}
	for i := range drvs {
		f.FailHostPort(i)
		r.fail(i)
	}
	r.check(t, len(script)/3, f)
	if f.TotalVCs() != 0 || f.NumRoutes() != 0 {
		t.Fatalf("a full teardown left %d VC entries, %d routes", f.TotalVCs(), f.NumRoutes())
	}
}

// TestVCInstallAllocations pins what installing a driver's receive
// channel costs the heap: one in its table's first slot nothing — a
// client's only channel — one past it a share of a slab chunk and of the
// map's growth, not a box of its own, and one that takes a deleted
// entry's slot nothing. (A transmit channel is its flow's route:
// TestQueuedRouteAllocations.)
func TestVCInstallAllocations(t *testing.T) {
	var rx rxTable
	if n := testing.AllocsPerRun(100, func() {
		rx.del(DefaultVCI)
		rx.add(rxVC{vci: DefaultVCI})
	}); n != 0 {
		t.Errorf("a first-slot install allocates %v, want 0", n)
	}
	const spills = 1024
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 1; i <= spills; i++ {
		rx.add(rxVC{vci: DefaultVCI + uint16(i)})
	}
	runtime.ReadMemStats(&m1)
	if n := float64(m1.Mallocs-m0.Mallocs) / spills; n > 0.05 {
		t.Errorf("spilled installs allocate %.3f an entry, want a share of a chunk (at most 0.05)", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		rx.del(DefaultVCI + 1)
		rx.add(rxVC{vci: DefaultVCI + 1})
	}); n != 0 {
		t.Errorf("reinstalling a deleted spilled entry allocates %v, want 0: it takes the freed slot", n)
	}
}

// TestQueuedRouteAllocations pins what a route finished at the barrier
// costs the heap: nothing a flow. On a two-env fat tree every flow between
// the leaves waits for the barrier — from leaf 0, at the destination leaf;
// toward it, at the spine — and once the flow map, route slab and queue
// have grown past a first batch of installs, an install and its barrier
// allocate only their share of that growth (AllocsPerRun's integer
// average rounds it away). A closure staged per install cost one
// allocation each.
func TestQueuedRouteAllocations(t *testing.T) {
	const leafPorts = 16
	plan := &ShardPlan{Envs: []*sim.Env{sim.NewEnv(), sim.NewEnv()}, HostShard: make([]int, 2*leafPorts)}
	for i := leafPorts; i < 2*leafPorts; i++ {
		plan.HostShard[i] = 1
	}
	f, _, _, _, _ := buildFabricOn(t, plan, FabricFatTree, leafPorts)
	var flows []flowKey
	for a := 0; a < leafPorts; a++ {
		for b := leafPorts; b < 2*leafPorts; b++ {
			flows = append(flows, flowKey{a, b}, flowKey{b, a})
		}
	}
	// Each port's VC table spans every VCI the flows use, as one that has
	// carried them would: lengthening a table is its growth, not a flow's
	// (and allocates at every install under -race, which keeps append's
	// temporary).
	for _, sw := range append([]*Switch{f.Core}, f.Leaves...) {
		for p := range sw.ports {
			sw.AddVC(p, DefaultVCI+uint16(len(flows)), p, DefaultVCI)
			sw.RemoveVC(p, DefaultVCI+uint16(len(flows)))
		}
	}
	next := 0
	install := func() {
		k := flows[next]
		next++
		if f.setup(k.src, uint32(k.dst+1)) == nil {
			t.Fatalf("no route from host %d to host %d", k.src, k.dst)
		}
		if n := f.FinishRoutes(); n != 1 {
			t.Fatalf("the barrier finished %d routes, want the 1 queued", n)
		}
	}
	for next < len(flows)/2 {
		install()
	}
	if n := testing.AllocsPerRun(len(flows)/2-1, install); n != 0 {
		t.Errorf("a route finished at the barrier allocates %v, want 0", n)
	}
	if got := f.TotalVCs(); got != 3*len(flows) {
		t.Errorf("%d cross-leaf routes hold %d VC entries, want 3 each", len(flows), got)
	}
}

// randomRoutes returns an n-operation script from seed.
func randomRoutes(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, 3*n)
	rng.Read(b)
	return b
}

func FuzzFabricRoutes(f *testing.F) {
	// Every host to every other, itself and an unowned address; then a
	// failure with its flows reinstalled after the restore.
	var mesh, churn []byte
	for a := byte(0); a < 8; a++ {
		for b := byte(0); b <= 8; b++ {
			mesh = append(mesh, routeInstall, a, b)
		}
	}
	for b := byte(1); b < 8; b++ {
		churn = append(churn, routeInstall, 0, b, routeInstall, b, 0)
	}
	churn = append(churn, routeFail, 4, 0, routeInstall, 3, 4, routeRestore, 4, 0, routeInstall, 3, 4, routeInstall, 4, 3)
	for _, sharded := range []bool{false, true} {
		for _, fat := range []bool{false, true} {
			f.Add(fat, sharded, mesh)
			f.Add(fat, sharded, churn)
			f.Add(fat, sharded, randomRoutes(29, 400))
		}
	}
	f.Fuzz(func(t *testing.T, fatTree, sharded bool, script []byte) {
		if len(script) > 3*1000 {
			script = script[:3*1000]
		}
		runRoutes(t, fatTree, sharded, script)
	})
}
