// Fault injection and the no-progress watchdog: the lab-level half of
// the deterministic fault tier. A sim.FaultSchedule is plain data; this
// file turns it into scheduled events against an assembled topology —
// link flips as down flags on the entities whose receive paths enforce
// them, port failures as VC teardown (transmit channels included) plus a
// down port, host crashes as mid-run transport-stack resets reusing the
// Reset machinery — and arms the watchdog that converts a recovery that
// never happens into a failing run with a diagnostic instead of a hang.
package lab

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/tcp"
)

// faultState is the lab's per-entity outage bookkeeping. Down flags are
// reference-counted so overlapping outages of one entity (two flap
// windows that intersect) restore the link only when the LAST outage
// lifts. The adapter counts are only ever touched from the owning
// host's event loop and the port counts from the port-owning switch's
// loop, so sharded link flips stay race-free without locks.
type faultState struct {
	adapterRefs []int
	portRefs    []int
	crashHooks  map[int][]func()
	restart     map[int][]func()
}

func (l *Lab) faults() *faultState {
	if l.faultState == nil {
		l.faultState = &faultState{
			adapterRefs: make([]int, len(l.Hosts)),
			portRefs:    make([]int, len(l.Hosts)),
			crashHooks:  make(map[int][]func()),
			restart:     make(map[int][]func()),
		}
	}
	return l.faultState
}

// OnHostCrash registers fn to run when host i's FaultHostCrash fires,
// after the TCP stack has crashed. Transport state the lab cannot see —
// a workload's rudp endpoint — registers its own teardown here.
func (l *Lab) OnHostCrash(i int, fn func()) {
	fs := l.faults()
	fs.crashHooks[i] = append(fs.crashHooks[i], fn)
}

// OnHostRestart registers fn to run when host i's FaultHostRestart
// fires, after the link is back up and the TCP stack's crashed
// connections are reaped — the hook a workload uses to re-listen and
// respawn the host's server processes.
func (l *Lab) OnHostRestart(i int, fn func()) {
	fs := l.faults()
	fs.restart[i] = append(fs.restart[i], fn)
}

// ScheduleFaults installs a fault schedule on the testbed
// (Cluster.ScheduleFaults on the cluster the lab runs under).
func (l *Lab) ScheduleFaults(s sim.FaultSchedule) error { return l.cluster.ScheduleFaults(s) }

// applyFault executes one fault event against the live topology.
func (l *Lab) applyFault(ev sim.FaultEvent) {
	h := l.Hosts[ev.Host]
	switch ev.Kind {
	case sim.FaultLinkDown:
		l.flipAdapter(ev.Host, true)
		l.flipPort(ev.Host, true)
	case sim.FaultLinkUp:
		l.flipAdapter(ev.Host, false)
		l.flipPort(ev.Host, false)
	case sim.FaultPortFail:
		l.flipAdapter(ev.Host, true)
		l.flipPort(ev.Host, true)
		if l.Fabric != nil {
			// Release every VC path through the failed port, transmit
			// channels included: the next datagram on such a flow sets
			// its path up afresh, which carries once the port is back.
			l.Fabric.FailHostPort(ev.Host)
		}
	case sim.FaultHostCrash:
		l.flipAdapter(ev.Host, true)
		l.flipPort(ev.Host, true)
		h.TCP.Crash()
		for _, fn := range l.faults().crashHooks[ev.Host] {
			fn()
		}
	case sim.FaultHostRestart:
		l.flipAdapter(ev.Host, false)
		l.flipPort(ev.Host, false)
		// Every operation blocked on a crashed socket unwound within
		// microseconds of the crash; downtime is orders of magnitude
		// longer, so the buffered chains are safe to reap now.
		h.TCP.ReapCrashed()
		for _, fn := range l.faults().restart[ev.Host] {
			fn()
		}
	}
}

// flipAdapter raises or lowers host i's access-link outage count and
// applies the resulting down state to its adapter. On the two-host
// switchless fiber the "link" is the pair's only fiber, so both
// adapters follow the combined count — a point-to-point link is down in
// both directions or neither. (An Ethernet adapter gates both its
// receive path and its own frame delivery, so one flag covers both
// directions there; a fabric's from-host direction dies at the switch
// port, see flipPort.)
func (l *Lab) flipAdapter(i int, down bool) {
	fs := l.faults()
	if down {
		fs.adapterRefs[i]++
	} else if fs.adapterRefs[i] > 0 {
		fs.adapterRefs[i]--
	}
	h := l.Hosts[i]
	if h.EthAdapter != nil {
		h.EthAdapter.SetDown(fs.adapterRefs[i] > 0)
		return
	}
	if l.Fabric == nil && len(l.Hosts) == 2 {
		fiberDown := fs.adapterRefs[0] > 0 || fs.adapterRefs[1] > 0
		l.Hosts[0].ATMAdapter.SetDown(fiberDown)
		l.Hosts[1].ATMAdapter.SetDown(fiberDown)
		return
	}
	h.ATMAdapter.SetDown(fs.adapterRefs[i] > 0)
}

// flipPort raises or lowers the outage count of host i's switch access
// port (the entity that drops the from-host direction of a fabric
// outage). A no-op off ATM fabrics, which have no switch ports.
func (l *Lab) flipPort(i int, down bool) {
	if l.Fabric == nil {
		return
	}
	fs := l.faults()
	if down {
		fs.portRefs[i]++
	} else if fs.portRefs[i] > 0 {
		fs.portRefs[i]--
	}
	l.Fabric.HostPort(i).SetDown(fs.portRefs[i] > 0)
}

// ArmWatchdog installs a no-progress watchdog on every event loop the
// lab's hosts run on (one loop serial, one per shard under a cluster)
// and returns it so the workload can report progress. A zero horizon
// selects sim.DefaultWatchdogHorizon. The diagnostic built at fire time
// names the stuck connections the firing loop can see.
func (l *Lab) ArmWatchdog(horizon sim.Time) *sim.Watchdog {
	w := sim.NewWatchdog(horizon)
	w.OnFire(l.watchdogDiag)
	l.Env.SetWatchdog(w)
	for _, h := range l.Hosts {
		h.Kern.Env.SetWatchdog(w)
	}
	l.wd = w
	return w
}

// watchdogDiag builds the watchdog's abort diagnostic: a histogram of
// the stalled loop's pending events (a livelock is typically thousands
// of copies of the same timer) plus every non-closed TCP connection on
// the hosts that loop owns, with its state and retransmission backoff —
// the "who is stuck" a hang never reports. Only hosts on the firing
// loop are walked: under sharded execution other shards' state is still
// being mutated by their own goroutines.
func (l *Lab) watchdogDiag(e *sim.Env) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n  pending events: %s", e.PendingSummary(8))
	const maxConns = 16
	listed, stuck := 0, 0
	for i, h := range l.Hosts {
		if h.Kern.Env != e {
			continue
		}
		for _, ent := range h.TCP.Table.Entries() {
			c, ok := ent.Owner.(*tcp.Conn)
			if !ok || c.State() == tcp.StateClosed {
				continue
			}
			stuck++
			if listed >= maxConns {
				continue
			}
			listed++
			k := ent.Key
			fmt.Fprintf(&b, "\n  %s %d:%d->%d.%d.%d.%d:%d %v rexmt-shift %d",
				HostName(i), k.LocalAddr&0xff, k.LocalPort,
				k.RemoteAddr>>24, (k.RemoteAddr>>16)&0xff, (k.RemoteAddr>>8)&0xff, k.RemoteAddr&0xff,
				k.RemotePort, c.State(), c.RexmtShift())
		}
	}
	if stuck > listed {
		fmt.Fprintf(&b, "\n  ... and %d more connections", stuck-listed)
	}
	if stuck == 0 {
		b.WriteString("\n  no open TCP connections on the stalled loop (see pending events)")
	}
	return b.String()
}

// Watchdog returns the armed watchdog, or nil.
func (l *Lab) Watchdog() *sim.Watchdog { return l.wd }

// ScheduleFaults validates the schedule against the topology and
// schedules every event. One shard accepts every fault kind, each event
// applied whole on the one loop. Above one shard only the shard-safe
// kinds (link flips) are accepted — port failures and host crashes
// mutate routed-fabric and stack state across shard boundaries — and
// each flip is split between the loops that own its two ends: the host's
// adapter on the host's loop, the matching switch port on the port's
// (the core's shard for a hub, the host's own shard for a fat-tree
// leaf), so every mutation happens on the goroutine that already owns
// the entity.
func (c *Cluster) ScheduleFaults(s sim.FaultSchedule) error {
	l := c.Lab
	sharded := len(c.Shards) > 1
	if sharded && !s.ShardSafe() {
		return fmt.Errorf("lab: sharded execution accepts only link-flip faults; port failures and host crashes mutate cross-shard state")
	}
	if err := s.Validate(len(l.Hosts)); err != nil {
		return err
	}
	l.faults() // allocate the refcounts before the run
	for _, ev := range s {
		ev := ev
		name := "fault." + ev.Kind.String()
		if !sharded {
			l.Env.At(ev.At, name, func() { l.applyFault(ev) })
			continue
		}
		down := ev.Kind == sim.FaultLinkDown
		c.EnvOf(ev.Host).At(ev.At, name, func() { l.flipAdapter(ev.Host, down) })
		c.portEnv(ev.Host).At(ev.At, "fault.port."+ev.Kind.String(),
			func() { l.flipPort(ev.Host, down) })
	}
	return nil
}

// portEnv returns the event loop owning host i's switch access port: a
// fat-tree host's port is on its leaf (the host's own shard); a hub
// host's port is on the core, which always lives in shard 0.
func (c *Cluster) portEnv(i int) *sim.Env {
	if c.Lab.Config.Fabric == FabricFatTree {
		return c.EnvOf(i)
	}
	return c.Shards[0].Env
}

// ArmWatchdog arms one shared watchdog across every shard's event loop.
func (c *Cluster) ArmWatchdog(horizon sim.Time) *sim.Watchdog {
	return c.Lab.ArmWatchdog(horizon)
}
