package sim

import (
	"fmt"
	"sort"
)

// FaultKind names one deterministic fault-injection action. Faults run
// on one event loop only: a cluster of several shards refuses any
// schedule (lab.Cluster.ScheduleFaults).
type FaultKind uint8

const (
	// FaultLinkDown drops every cell or frame arriving at the target
	// host's access link (both directions) until FaultLinkUp.
	FaultLinkDown FaultKind = iota
	// FaultLinkUp restores the target host's access link and, after a
	// FaultPortFail, its switch port.
	FaultLinkUp
	// FaultPortFail fails the target host's switch access port: the
	// link goes down and every VC routed through the port is torn down,
	// so recovery re-routes through on-demand VC setup. FaultLinkUp
	// restores the port.
	FaultPortFail
	// FaultHostCrash resets the target host's transport stacks mid-run —
	// PCBs, listeners, and in-flight retransmission state are lost, as
	// with a kernel crash — and takes the access link down.
	FaultHostCrash
	// FaultHostRestart brings a crashed host's link back up; the stack
	// restarts empty and applications must re-listen and reconnect.
	FaultHostRestart
	// FaultWireFlip flips bit Bit of the cell stream the target host's
	// ATM adapter launches from the event's time on — bit Bit%424 of cell
	// Bit/424 — as noise on the fibre, which the HEC or the AAL3/4 CRC-10
	// of the receiving end can catch.
	FaultWireFlip
	// FaultControllerFlip flips bit Bit of the first datagram the target
	// host's ATM driver reassembles at or after the event's time, during
	// the device-to-host transfer — the paper's buggy controller
	// (§4.2.1), invisible to the AAL. A bit past the datagram's end flips
	// nothing.
	FaultControllerFlip
)

// String names the kind for diagnostics.
func (k FaultKind) String() string {
	switch k {
	case FaultLinkDown:
		return "link-down"
	case FaultLinkUp:
		return "link-up"
	case FaultPortFail:
		return "port-fail"
	case FaultHostCrash:
		return "host-crash"
	case FaultHostRestart:
		return "host-restart"
	case FaultWireFlip:
		return "wire-flip"
	case FaultControllerFlip:
		return "controller-flip"
	}
	return fmt.Sprintf("fault(%d)", uint8(k))
}

// FaultEvent is one scheduled one-shot fault: at virtual time At, apply
// Kind to Host's entity (its access link, switch port, stack, cell stream
// or receive path). Bit is the bit a flip kind flips.
type FaultEvent struct {
	At   Time
	Kind FaultKind
	Host int
	Bit  int
}

// FaultSchedule is a deterministic fault-injection plan: a set of timed
// one-shot events applied to a topology at the start of a run. The
// schedule is plain data — it draws nothing from the simulation's RNG
// stream, so an identical schedule replays identically and perturbs no
// other random draw.
type FaultSchedule []FaultEvent

// Validate checks every event is of a known kind and targets a host in
// [0, hosts) at a non-negative time and, for a flip, a non-negative bit.
func (s FaultSchedule) Validate(hosts int) error {
	for _, ev := range s {
		if ev.Kind > FaultControllerFlip {
			return fmt.Errorf("sim: unknown fault kind %s", ev.Kind)
		}
		if ev.Bit < 0 {
			return fmt.Errorf("sim: fault %s flips negative bit %d", ev.Kind, ev.Bit)
		}
		if ev.Host < 0 || ev.Host >= hosts {
			return fmt.Errorf("sim: fault %s targets host %d of %d", ev.Kind, ev.Host, hosts)
		}
		if ev.At < 0 {
			return fmt.Errorf("sim: fault %s at negative time %v", ev.Kind, ev.At)
		}
	}
	return nil
}

// CrashSchedule is the canonical recovery-study plan: host crashes at
// `at` and restarts after `downtime`.
func CrashSchedule(host int, at, downtime Time) FaultSchedule {
	return FaultSchedule{
		{At: at, Kind: FaultHostCrash, Host: host},
		{At: at + downtime, Kind: FaultHostRestart, Host: host},
	}
}

// faultStreamSeed derives host h's private fault RNG seed from the base
// seed with a splitmix64 finalizer — the same per-entity stream
// construction the qdisc and impairment layers use, and for the same
// reason: draws for one entity never consume another entity's stream or
// the shared serial stream, so adding an entity leaves every other
// entity's draws unchanged.
func faultStreamSeed(base uint64, h int) uint64 {
	z := base + 0x9E3779B97F4A7C15*(uint64(h)+0x5EED_FA01)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// LinkFlaps builds a schedule of random link flaps: each listed host
// flaps `flaps` times, with down times drawn uniformly over [0, window)
// from the host's own splitmix64-derived stream and each outage lasting
// `downtime`. Same base seed, same hosts ⇒ same schedule.
func LinkFlaps(base uint64, hosts []int, flaps int, window, downtime Time) FaultSchedule {
	var s FaultSchedule
	for _, h := range hosts {
		rng := NewRNG(faultStreamSeed(base, h))
		for k := 0; k < flaps; k++ {
			at := Time(rng.Float64() * float64(window))
			s = append(s, FaultEvent{At: at, Kind: FaultLinkDown, Host: h},
				FaultEvent{At: at + downtime, Kind: FaultLinkUp, Host: h})
		}
	}
	// Canonical order: by time, then host, then kind — so the schedule's
	// application order (and thus equal-time event sequencing) does not
	// depend on construction order.
	sort.SliceStable(s, func(i, j int) bool {
		if s[i].At != s[j].At {
			return s[i].At < s[j].At
		}
		if s[i].Host != s[j].Host {
			return s[i].Host < s[j].Host
		}
		return s[i].Kind < s[j].Kind
	})
	return s
}

// GEParams configures a Gilbert–Elliott two-state loss chain: a link
// alternates between a Good and a Bad state with per-step transition
// probabilities, and each transmission unit (cell, frame) is lost with
// the current state's loss probability. It is the testbed's one loss
// model. LossGood alone, with PGoodBad zero, is independent (Bernoulli)
// loss at that rate. With a Bad state, losses cluster — its sojourn is
// geometric with mean 1/PBadGood units — which is what kills several
// cells of one AAL frame at once and so converts cell-level impairment
// into whole segment loss far more often than independent drops of the
// same rate.
//
// The zero value disables the chain.
type GEParams struct {
	// PGoodBad is the per-unit probability of entering the Bad state.
	PGoodBad float64
	// PBadGood is the per-unit probability of leaving the Bad state;
	// the mean burst length is 1/PBadGood units.
	PBadGood float64
	// LossGood is the per-unit loss probability in the Good state
	// (usually 0 or very small).
	LossGood float64
	// LossBad is the per-unit loss probability in the Bad state.
	LossBad float64
}

// Enabled reports whether the chain does anything.
func (p GEParams) Enabled() bool {
	return p.PGoodBad > 0 || p.LossGood > 0
}

// StationaryLoss returns the long-run loss probability of the chain:
// the Bad-state occupancy times LossBad plus the Good-state occupancy
// times LossGood. It is what the property tests compare empirical rates
// against.
func (p GEParams) StationaryLoss() float64 {
	if p.PGoodBad <= 0 && p.PBadGood <= 0 {
		return p.LossGood
	}
	piBad := p.PGoodBad / (p.PGoodBad + p.PBadGood)
	return piBad*p.LossBad + (1-piBad)*p.LossGood
}

// GEChain is the running state of one link's Gilbert–Elliott chain. It
// draws from its own RNG — seeded per link, never the simulation
// environment's stream, like every impairment draw — so enabling loss on
// one link perturbs no other random draw, and a receiver may draw it
// whenever it receives a cell, in arrival order. (Sharded execution
// rejects loss configurations at construction, so loss studies run
// serial only.)
type GEChain struct {
	P    GEParams
	seed uint64
	bad  bool
	rng  RNG
}

// Init (re)starts the chain in the Good state with the given seed.
func (c *GEChain) Init(p GEParams, seed uint64) {
	c.P = p
	c.seed = seed
	c.Reset()
}

// Reset rewinds the chain to its initial state for testbed reuse.
func (c *GEChain) Reset() {
	c.bad = false
	c.rng = *NewRNG(c.seed)
}

// Enabled reports whether Drop does anything.
func (c *GEChain) Enabled() bool { return c.P.Enabled() }

// Bad exposes the current state for tests.
func (c *GEChain) Bad() bool { return c.bad }

// Drop advances the chain one transmission unit and reports whether
// that unit is lost. Two draws per unit: the state transition, then the
// loss lottery in the (possibly new) state.
func (c *GEChain) Drop() bool {
	if c.bad {
		if c.rng.Float64() < c.P.PBadGood {
			c.bad = false
		}
	} else {
		if c.rng.Float64() < c.P.PGoodBad {
			c.bad = true
		}
	}
	pl := c.P.LossGood
	if c.bad {
		pl = c.P.LossBad
	}
	return pl > 0 && c.rng.Float64() < pl
}
