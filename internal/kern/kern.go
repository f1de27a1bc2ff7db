// Package kern models the host operating system the protocol stack runs
// on: a single CPU, kernel code executing in process context or interrupt
// context, sleep/wakeup scheduling, and software interrupts. It is the
// ULTRIX 4.2A stand-in.
//
// The CPU is a busy-until cursor: each charge reserves the interval
// [max(now, busyUntil), +duration) and attributes it to a protocol layer
// in the trace recorder. Work requested while the CPU is busy starts when
// the CPU frees up, which is how interrupt processing, software-interrupt
// dispatch and process wakeup naturally delay one another — the queueing
// structure behind the paper's IPQ and Wakeup rows and behind the
// receive-side overlap effects at large transfer sizes.
//
// Every charge flows through Attribute, which records it, when the
// recorder is armed, as a typed EvCPU event carrying the identity of the
// packet the charging process is working on (its sim.Proc tag stack).
// That one record is both the raw material of Tables 2 and 3 and a leaf
// of the per-packet timelines; see docs/ARCHITECTURE.md for the full
// trace pipeline.
package kern

import (
	"strconv"

	"repro/internal/cost"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Kernel is one host's operating system state, with the trace recorder
// and the mbuf pool held by value: one allocation from New, none from Init
// in its host's own storage. The pool's accounting is
// the host's own; its free-lists are the event loop's, shared with every
// other kernel on env (see mbuf.Pool.Share).
type Kernel struct {
	Env   *sim.Env
	Cost  *cost.Model
	Trace trace.Recorder
	Pool  mbuf.Pool

	// name is the host name given to New; a kernel from NewHost has none
	// and is named, when something asks, after its index.
	name string
	host int

	busyUntil sim.Time
}

// New returns a kernel for one host, sharing the simulation environment
// and using the given cost model.
func New(env *sim.Env, model *cost.Model, name string) *Kernel {
	return new(Kernel).Init(env, model, name)
}

// Init readies a zero Kernel in place, as New does, and returns it: a
// testbed host holds its kernel by value.
func (k *Kernel) Init(env *sim.Env, model *cost.Model, name string) *Kernel {
	k.Env, k.Cost, k.name = env, model, name
	k.Pool.Share(sim.Local[mbuf.FreeList](env))
	return k
}

// NewHost is New for host i of a testbed, named HostName(i) — but only
// when a diagnostic or a trace asks: a ten-thousand-host topology does
// not format ten thousand names to build.
func NewHost(env *sim.Env, model *cost.Model, i int) *Kernel {
	return new(Kernel).InitHost(env, model, i)
}

// InitHost is Init for host i of a testbed, named as NewHost names it.
func (k *Kernel) InitHost(env *sim.Env, model *cost.Model, i int) *Kernel {
	k.Init(env, model, "")
	k.host = i
	return k
}

// HostName returns the name of host i of a testbed. The paper's echo
// pair fixed the first two: host 0 is "client", host 1 is "server"; the
// rest are numbered.
func HostName(i int) string {
	switch i {
	case 0:
		return "client"
	case 1:
		return "server"
	}
	return "host" + strconv.Itoa(i)
}

// Name returns the host name, for diagnostics and trace labels.
func (k *Kernel) Name() string {
	if k.name == "" {
		return HostName(k.host)
	}
	return k.name
}

// Reset returns the kernel to its just-constructed state for testbed
// reuse: the CPU cursor rewinds to zero (the environment's clock has
// been reset), the trace recorder is cleared (its buffer and arming kept:
// the testbed's configure re-arms or disarms it), and the mbuf
// pool's counters are zeroed while its free-lists — the recycled headers
// and cluster pages the next trial's steady state will run on — are
// retained. The cost model is re-bound so a reused host can run a trial
// with a different model.
func (k *Kernel) Reset(model *cost.Model) {
	k.Cost = model
	k.busyUntil = 0
	k.Trace.Reset()
	k.Pool.Reset()
}

// Now returns the current virtual time.
func (k *Kernel) Now() sim.Time { return k.Env.Now() }

// BusyUntil returns the time the CPU becomes free.
func (k *Kernel) BusyUntil() sim.Time { return k.busyUntil }

// Use charges d of CPU time attributed to layer, executing in the context
// of process p. The process advances to the end of the charge; if the CPU
// is currently reserved by other work the charge starts after it. In the
// common case the charge completes inline — an ordinary function call —
// and Use returns true; when the process had to park for the CPU (or for
// an event scheduled inside the interval) Use returns false and the
// calling frame must return from Step immediately, resuming at the state
// it recorded before the call.
func (k *Kernel) Use(p *sim.Proc, layer trace.Layer, d sim.Time) bool {
	if d < 0 {
		panic("kern: negative CPU charge")
	}
	start := k.Env.Now()
	if k.busyUntil > start {
		start = k.busyUntil
	}
	end := start + d
	k.busyUntil = end
	k.Attribute(p, layer, start, end)
	return p.SleepUntil(end)
}

// Attribute records the interval [start, end] of CPU time against layer,
// when the recorder is armed, as a typed EvCPU event carrying the packet
// identity tagged on p: the Tables 2/3 raw material and the charge's
// place in the per-packet timeline. Charges made while p carries no
// packet tag (user copies before segmentation, scheduler wakeups) record
// with a zero identity and surface as unattributed in timeline
// reconstructions.
func (k *Kernel) Attribute(p *sim.Proc, layer trace.Layer, start, end sim.Time) {
	if k.Trace.PacketsEnabled() {
		k.Trace.Event(trace.Event{
			Kind:  trace.EvCPU,
			Layer: layer,
			At:    start,
			Dur:   end - start,
			ID:    k.PacketContext(p),
		})
	}
}

// PacketContext returns the packet identity the process is currently
// working on (the top of its tag stack), or the zero identity when the
// work belongs to no packet. p may be nil (plain event context).
func (k *Kernel) PacketContext(p *sim.Proc) trace.PacketID {
	if p == nil {
		return trace.PacketID{}
	}
	if id, ok := p.Tag().(trace.PacketID); ok {
		return id
	}
	return trace.PacketID{}
}

// SleepOn parks p on wq and arms the wakeup charge: once woken, p is
// charged the scheduler's wakeup path (run-queue to running) before its
// frame stack resumes. The time from wakeup to running is the paper's
// Wakeup row; the trace span covers both the CPU charge and any wait for
// the CPU. The calling frame must return from Step immediately after
// SleepOn; it re-enters — wakeup already charged — when the queue wakes
// it.
func (k *Kernel) SleepOn(p *sim.Proc, wq *sim.WaitQueue) {
	wq.Wait(p)
	p.OnWake(k)
}

// Woken implements sim.WakeHook: the scheduler's wakeup path, charged to
// a process SleepOn parked as it resumes.
func (k *Kernel) Woken(p *sim.Proc) bool {
	return k.Use(p, trace.LayerWakeup, k.Cost.Wakeup)
}

// FreeChainCost returns the CPU cost of freeing the chain m (per-mbuf
// free cost times chain length). Callers charge it, then release the
// chain with Pool.Free; a nil chain costs nothing.
func (k *Kernel) FreeChainCost(m *mbuf.Mbuf) sim.Time {
	return sim.Time(mbuf.ChainCount(m)) * k.Cost.MbufFree
}
