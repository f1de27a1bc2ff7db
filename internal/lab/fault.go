// Fault injection and the no-progress watchdog: the lab-level half of
// the deterministic fault tier. A sim.FaultSchedule is plain data; this
// file turns it into scheduled events against an assembled topology —
// link flips as down flags on the entities whose receive paths enforce
// them, port failures as VC teardown (transmit channels included) plus a
// down port, host crashes as mid-run transport-stack resets reusing the
// Reset machinery, bit flips as flips armed on an ATM adapter's launches
// or an ATM driver's next reassembled datagram — and arms the watchdog
// that converts a recovery that never happens into a failing run with a
// diagnostic instead of a hang.
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
// lifts.
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
	case sim.FaultWireFlip:
		h.ATMAdapter.FlipLaunched(ev.Bit)
	case sim.FaultControllerFlip:
		h.ATMDriver.FlipNext(ev.Bit)
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

// ArmWatchdog installs one no-progress watchdog on every event loop the
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
// loop are walked.
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
// schedules every event, each applied whole on the one loop; a bit flip
// needs an ATM host. A cluster of several shards refuses any non-empty
// schedule: a fault mutates state — a host and its switch port, the
// fabric's routes, a stack — that shards own separately.
func (c *Cluster) ScheduleFaults(s sim.FaultSchedule) error {
	l := c.Lab
	if len(s) > 0 && len(c.Shards) > 1 {
		return fmt.Errorf("lab: a cluster of %d shards runs no faults; schedule them on a one-shard lab", len(c.Shards))
	}
	if err := s.Validate(len(l.Hosts)); err != nil {
		return err
	}
	for _, ev := range s {
		if (ev.Kind == sim.FaultWireFlip || ev.Kind == sim.FaultControllerFlip) && l.Hosts[ev.Host].ATMAdapter == nil {
			return fmt.Errorf("lab: fault %s targets %s, which has no ATM link", ev.Kind, HostName(ev.Host))
		}
	}
	l.faults() // allocate the refcounts before the run
	for _, ev := range s {
		ev := ev
		l.Env.At(ev.At, "fault."+ev.Kind.String(), func() { l.applyFault(ev) })
	}
	return nil
}
