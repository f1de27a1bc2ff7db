// Cross traffic: deterministic background load that shares the fabric
// with a measured workload, so the measured flows compete for switch
// egress queues and server CPU the way real traffic does — the loaded
// regime the qdisc and burst-loss knobs exist to study.
//
// Transfer sizes are heavy-tailed (bounded Pareto), the classic shape of
// observed flow-size distributions: most transfers are mice, a few are
// elephants that stand on a switch queue for many cell times. Every
// size is a pure function of (Seed, flow, transfer) through a splitmix
// hash — no draw touches any environment RNG stream — and each flow
// runs a fixed number of transfers, so cross traffic neither perturbs
// the measured workload's random draws nor needs a stop flag shards
// couldn't share.
package workload

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// CrossPort is the well-known port the cross-traffic sink listens on,
// beside the measured workload's Port.
const CrossPort = 9008

// CrossTraffic configures background load. The zero value of each field
// takes a default; a nil *CrossTraffic on a workload means no load.
type CrossTraffic struct {
	// Flows is the number of concurrent background flows (default 2).
	// Flow f originates on client host 1 + f mod (hosts-1), so flows
	// share adapters and switch ports with measured clients.
	Flows int
	// Transfers is the fixed number of transfers per flow (default 4).
	Transfers int
	// MinBytes / MaxBytes bound the per-transfer size (defaults 512 and
	// 262144): the bounded-Pareto support [L, H].
	MinBytes int
	MaxBytes int
	// Alpha is the Pareto tail index (default 1.3; smaller = heavier).
	Alpha float64
	// Gap is the idle time between one flow's transfers (default 2ms).
	Gap sim.Time
	// Seed seeds the size-draw hash stream (default 1).
	Seed uint64
}

// withDefaults returns the configuration with zero fields defaulted.
func (ct CrossTraffic) withDefaults() CrossTraffic {
	ct.Flows = defInt(ct.Flows, 2)
	ct.Transfers = defInt(ct.Transfers, 4)
	ct.MinBytes = defInt(ct.MinBytes, 512)
	ct.MaxBytes = defInt(ct.MaxBytes, 262144)
	if ct.MaxBytes < ct.MinBytes {
		ct.MaxBytes = ct.MinBytes
	}
	if ct.Alpha <= 0 {
		ct.Alpha = 1.3
	}
	if ct.Gap <= 0 {
		ct.Gap = 2 * sim.Millisecond
	}
	if ct.Seed == 0 {
		ct.Seed = 1
	}
	return ct
}

// crossHash is a splitmix64-style finalizer over the (seed, flow,
// transfer) triple: one independent 64-bit draw per transfer, with no
// sequential state to share or reset.
func crossHash(seed, flow, k uint64) uint64 {
	z := seed + flow*0x9e3779b97f4a7c15 + k*0xc2b2ae3d27d4eb4f
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// SizeOf returns flow f's k-th transfer size: the bounded-Pareto inverse
// CDF x = L / (1 - u·(1-(L/H)^α))^(1/α) at a hash-derived uniform u.
func (ct CrossTraffic) SizeOf(f, k int) int {
	c := ct.withDefaults()
	u := float64(crossHash(c.Seed, uint64(f), uint64(k))>>11) / float64(1<<53)
	l, h := float64(c.MinBytes), float64(c.MaxBytes)
	if l == h {
		return c.MinBytes
	}
	x := l / math.Pow(1-u*(1-math.Pow(l/h, c.Alpha)), 1/c.Alpha)
	if n := int(x); n < c.MaxBytes {
		return n
	}
	return c.MaxBytes
}

// flowHost maps flow f to the client host index it originates on.
func (ct CrossTraffic) flowHost(f, clients int) int { return 1 + f%clients }

// flows is the number of background flows the configuration adds to a
// run; a nil configuration adds none.
func (ct *CrossTraffic) flows() int {
	if ct == nil {
		return 0
	}
	return ct.withDefaults().Flows
}

// spawn arms the background load on r's cluster: the sink — a listener on
// host 0's CrossPort whose accept loop drains every background connection
// to EOF — on the server's loop, reporting to the server's slot, and each
// flow on the loop that owns its originating host, with a slot of its
// own. Cross traffic rides TCP, Nagle on, whatever the measured transport.
func (ct CrossTraffic) spawn(r *run) error {
	c, tr := ct.withDefaults(), tcpTransport{nagle: true}
	l := r.c.Lab
	ln, err := tr.listen(l.Hosts[0], CrossPort)
	if err != nil {
		return err
	}
	env := r.c.EnvOf(0)
	env.Spawn("server.cross", &acceptLoopFrame{
		ln: ln, n: c.Flows * c.Transfers,
		accepted: func(al *acceptLoopFrame, i int, cn conn, _ *serveEchoFrame) bool {
			env.Spawn("", &drainFrame{c: cn, al: al, me: r.server(), name: "server.cross", i: i})
			return true
		},
	})
	// Flows take the client hosts in turn (flowHost), so each round of
	// them has its conns from one clients call on a run of hosts.
	n := len(r.clients)
	var cs []conn
	for f := 0; f < c.Flows; f++ {
		if f%n == 0 {
			cs = tr.clients(l.Hosts[1:1+min(n, c.Flows-f)], CrossPort)
		}
		hi := c.flowHost(f, n)
		r.c.EnvOf(hi).Spawn("", &crossLoopFrame{
			ct: c, f: f, me: &r.parts[1+f],
			src: streamFrame{c: cs[hi-1], chunk: 8192},
		})
	}
	return nil
}

// crossLoopFrame runs one background flow: Transfers times, call the
// byte-stream source for the hash-drawn size, and idle for Gap. Flow f's
// first transfer waits out f gaps so flows do not start in lockstep. The
// source keeps its payload from one transfer to the next; the flow gives
// it back when it ends.
type crossLoopFrame struct {
	ct  CrossTraffic
	f   int
	me  *participant
	src streamFrame

	pc, k int
}

// Name implements sim.Namer.
func (f *crossLoopFrame) Name() string { return indexed("cross.flow", f.f, "") }

// Step drives the flow.
func (f *crossLoopFrame) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0: // desynchronize flow starts
			f.pc = 1
			if at := sim.Time(f.f) * f.ct.Gap; at > 0 && !p.SleepUntil(at) {
				return
			}
		case 1: // transfer loop head: stream this transfer's bytes
			if f.k >= f.ct.Transfers {
				f.finish(p)
				return
			}
			f.src.total = f.ct.SizeOf(f.f, f.k)
			f.pc = 2
			p.Call(&f.src)
			return
		case 2: // closed; idle out the gap, then next transfer
			if f.src.err != nil {
				f.me.fail(p.Env(), fmt.Errorf("cross flow %d transfer %d: %w", f.f, f.k, f.src.err))
				f.finish(p)
				return
			}
			f.k++
			f.pc = 1
			if !p.Sleep(f.ct.Gap) {
				return
			}
		}
	}
}

// finish gives the source's payload back and ends the flow.
func (f *crossLoopFrame) finish(p *sim.Proc) {
	p.Env().Arena().Put(f.src.msg)
	f.src.msg = nil
	p.Return()
}
