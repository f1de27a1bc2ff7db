package atm

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// The fabric's conservation law: every VC table entry and every trunk
// VCI out belongs to exactly one installed route, and a route exists for
// every flow installed and not since removed. refFabric is the flow map
// that law is checked against — routes as (src, dst) pairs, each driver's
// on-demand transmit cache with its LRU stamps — and FuzzFabricRoutes
// drives the real fabric and the reference through the same arbitrary
// sequence of installs (through Driver.segFor), TxVCLimit evictions,
// teardowns, port failures and restores.

// refFabric is the reference: which flows have a route, what each
// driver's transmit cache holds, and how many routes were ever installed.
type refFabric struct {
	leafOf   []int // a host's leaf; all zero on a hub
	routes   map[flowKey]bool
	tx       []map[int]sim.Time // per source: destination -> last use
	limit    []int
	installs int64
}

func newRefFabric(f *Fabric) *refFabric {
	n := f.NumHosts()
	r := &refFabric{leafOf: make([]int, n), routes: map[flowKey]bool{}, tx: make([]map[int]sim.Time, n), limit: make([]int, n)}
	for i := range r.tx {
		r.tx[i] = map[int]sim.Time{}
		r.leafOf[i] = max(f.hosts[i].leaf, 0)
	}
	return r
}

// install is Driver.segFor as the reference sees it: a cached VC is
// touched; a miss asks the fabric (a new route unless one stands) and
// then evicts the least recently used other entry, lowest destination on
// a tie, past the limit.
func (r *refFabric) install(now sim.Time, src, dst int) {
	if _, ok := r.tx[src][dst]; ok {
		r.tx[src][dst] = now
		return
	}
	if k := (flowKey{src, dst}); !r.routes[k] {
		r.routes[k] = true
		r.installs++
	}
	r.tx[src][dst] = now
	if r.limit[src] == 0 || len(r.tx[src]) <= r.limit[src] {
		return
	}
	victim, found := 0, false
	for d, at := range r.tx[src] {
		if d == dst {
			continue
		}
		if !found || at < r.tx[src][victim] || (at == r.tx[src][victim] && d < victim) {
			victim, found = d, true
		}
	}
	delete(r.tx[src], victim)
	delete(r.routes, flowKey{src, victim})
}

// fail removes every route to or from host i; the drivers keep their
// transmit caches, as the real ones do.
func (r *refFabric) fail(i int) {
	for k := range r.routes {
		if k.src == i || k.dst == i {
			delete(r.routes, k)
		}
	}
}

// check holds the fabric to the reference.
func (r *refFabric) check(t *testing.T, step int, f *Fabric, drvs []*Driver) {
	t.Helper()
	if got := f.NumRoutes(); got != len(r.routes) {
		t.Fatalf("step %d: fabric holds %d routes, reference %d", step, got, len(r.routes))
	}
	if got := f.VCsSetUp(); got != r.installs {
		t.Fatalf("step %d: VCsSetUp = %d, reference installed %d", step, got, r.installs)
	}
	for i, d := range drvs {
		if got := d.NumTxVCs(); got != len(r.tx[i]) {
			t.Fatalf("step %d: host %d caches %d tx VCs, reference %d", step, i, got, len(r.tx[i]))
		}
	}
	// Hops a switch carries, and VCIs out on each trunk direction.
	hops := map[*Switch]int{}
	up, down := map[int]int{}, map[int]int{}
	for k := range r.routes {
		ls, ld := r.leafOf[k.src], r.leafOf[k.dst]
		switch {
		case f.Leaves == nil:
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
	routeInstall  = iota // host a sends to host b
	routeLimit           // host a's TxVCLimit becomes b%4 (0: unlimited)
	routeTeardown        // the fabric tears a's route to b down
	routeFail            // host a's access port fails
	routeRestore         // and comes back
	routeOps
)

// runRoutes builds the fabric — a hub of 6 hosts, or a fat tree of 8 at
// 3 a leaf — and drives it and the reference through script, checking
// after every operation; at the end it removes every route and checks the
// fabric holds no VC entry and no trunk VCI.
func runRoutes(t *testing.T, fatTree bool, script []byte) {
	kind, leafPorts, n := FabricHub, 0, 6
	if fatTree {
		kind, leafPorts, n = FabricFatTree, 3, 8
	}
	f, _, _, drvs, _ := buildFabric(t, sim.NewEnv(), kind, leafPorts, n)
	r := newRefFabric(f)
	addr := func(i int) uint32 { return uint32(i + 1) } // buildFabric's addressing
	var now sim.Time
	for step := 0; step+2 < len(script); step += 3 {
		op, a, b := int(script[step])%routeOps, int(script[step+1])%n, int(script[step+2])
		switch op {
		case routeInstall:
			dst := b % n
			if dst == a {
				continue
			}
			now += sim.Time(script[step] / routeOps % 2) // ties, sometimes
			drvs[a].segFor(now, addr(dst))
			r.install(now, a, dst)
		case routeLimit:
			drvs[a].TxVCLimit = b % 4
			r.limit[a] = b % 4
		case routeTeardown:
			f.teardown(a, addr(b%n))
			delete(r.routes, flowKey{a, b % n})
		case routeFail:
			f.FailHostPort(a)
			r.fail(a)
		case routeRestore:
			f.RestoreHostPort(a)
		}
		r.check(t, step/3, f, drvs)
	}
	for i := range drvs {
		f.FailHostPort(i)
		r.fail(i)
	}
	r.check(t, len(script)/3, f, drvs)
	if f.TotalVCs() != 0 || f.NumRoutes() != 0 {
		t.Fatalf("a full teardown left %d VC entries, %d routes", f.TotalVCs(), f.NumRoutes())
	}
}

// TestVCInstallAllocations pins what installing a driver's VC state costs
// the heap: a transmit or receive channel in its table's first slot
// nothing — a client's only channel each way — one past it a share of a
// slab chunk and of the map's growth, not a box of its own, and one that
// takes a deleted entry's slot nothing (a server's on-demand transmit
// channels are deleted and reinstalled at every testbed reset).
func TestVCInstallAllocations(t *testing.T) {
	var tx txTable
	var rx rxTable
	if n := testing.AllocsPerRun(100, func() {
		tx.del(7)
		tx.add(7, txVC{seg: Segmenter{VCI: DefaultVCI}})
		rx.del(DefaultVCI)
		rx.add(rxVC{vci: DefaultVCI})
	}); n != 0 {
		t.Errorf("first-slot installs allocate %v, want 0", n)
	}
	const spills = 1024
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 1; i <= spills; i++ {
		tx.add(uint32(7+i), txVC{})
		rx.add(rxVC{vci: DefaultVCI + uint16(i)})
	}
	runtime.ReadMemStats(&m1)
	if n := float64(m1.Mallocs-m0.Mallocs) / (2 * spills); n > 0.05 {
		t.Errorf("spilled installs allocate %.3f an entry, want a share of a chunk (at most 0.05)", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		tx.del(8)
		tx.add(8, txVC{})
		rx.del(DefaultVCI + 1)
		rx.add(rxVC{vci: DefaultVCI + 1})
	}); n != 0 {
		t.Errorf("reinstalling a deleted spilled entry allocates %v, want 0: it takes the freed slot", n)
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
	// Every host to every other and back; then a limit, evictions, a
	// failure with its flows reinstalled after the restore, a teardown.
	var mesh, churn []byte
	for a := byte(0); a < 8; a++ {
		for b := byte(0); b < 8; b++ {
			mesh = append(mesh, routeInstall, a, b)
		}
	}
	churn = append(churn, routeLimit, 0, 2)
	for b := byte(1); b < 8; b++ {
		churn = append(churn, routeInstall, 0, b, routeInstall+routeOps, 0, 1)
	}
	churn = append(churn, routeFail, 4, 0, routeInstall, 3, 4, routeRestore, 4, 0, routeInstall, 3, 4, routeTeardown, 3, 4)
	for _, fat := range []bool{false, true} {
		f.Add(fat, mesh)
		f.Add(fat, churn)
		f.Add(fat, randomRoutes(29, 400))
	}
	f.Fuzz(func(t *testing.T, fatTree bool, script []byte) {
		if len(script) > 3*1000 {
			script = script[:3*1000]
		}
		runRoutes(t, fatTree, script)
	})
}
