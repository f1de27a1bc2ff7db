package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/atm"
	"repro/internal/checksum"
	"repro/internal/cost"
	"repro/internal/kern"
	"repro/internal/lab"
	"repro/internal/mbuf"
	"repro/internal/pcb"
	"repro/internal/rudp"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/workload"
)

// A kernel times one layer's public functions in isolation, on the
// input shape of the workload it is reported under (the README's
// interaction table says which). setup builds the fixture once and
// returns a function that performs n operations.
type kernel struct {
	name   string
	allocs bool // also report heap allocations per operation
	setup  func() func(n int)
}

// Kernel timing: five repetitions of kernelRep each; the median is
// reported. Batches are sized so the clock is read about once a
// millisecond.
const (
	kernelReps  = 5
	kernelRep   = 60 * time.Millisecond
	kernelBatch = time.Millisecond
)

var kernels = []kernel{
	// echo-small: per-packet fixed costs.
	{"sim.heap_pushpop_d64", true, func() func(int) { return heapPushPop(64) }},
	{"sim.proc_call_return", true, procCallReturn},
	{"sim.proc_park_wake", true, procParkWake},
	{"mbuf.alloc_free", true, func() func(int) {
		var pool mbuf.Pool
		return func(n int) {
			for i := 0; i < n; i++ {
				pool.Free(pool.Alloc())
			}
		}
	}},
	{"checksum.sum_64", false, func() func(int) { return sumKernel(64) }},
	{"atm.aal34_roundtrip_48", true, func() func(int) { return aal34RoundTrip(48) }},
	{"pcb.lookup_cached", false, func() func(int) { return pcbLookup(20, false, true) }},
	{"tcp.header_roundtrip", false, func() func(int) {
		h := tcp.Header{SrcPort: 1025, DstPort: workload.Port, Seq: 7, Ack: 9, Flags: 0x18, Win: 16384}
		buf := make([]byte, 64)
		return func(n int) {
			for i := 0; i < n; i++ {
				h.Seq++
				got, _, err := tcp.Parse(buf[:h.Marshal(buf)])
				if err != nil || got.Seq != h.Seq {
					panic("tcp header did not survive Marshal/Parse")
				}
			}
		}
	}},
	{"stats.add_exact", false, func() func(int) {
		return func(n int) {
			var s stats.Sample
			for i := 0; i < n; i++ {
				s.Add(float64(i & 1023))
			}
		}
	}},
	{"lab.new_2host", true, func() func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				sink = lab.New(lab.Config{Link: lab.LinkATM, Seed: 1})
			}
		}
	}},
	{"lab.reset_2host", true, func() func(int) {
		cfg := lab.Config{Link: lab.LinkATM, Seed: 1}
		l := lab.New(cfg)
		if _, err := l.RunEcho(200, 4, 1); err != nil {
			panic(err)
		}
		return resetKernel(l, cfg)
	}},

	// echo-large: per-byte and per-cell costs.
	{"mbuf.cluster_alloc_free", true, func() func(int) {
		var pool mbuf.Pool
		return func(n int) {
			for i := 0; i < n; i++ {
				pool.Free(pool.AllocCluster())
			}
		}
	}},
	{"mbuf.copy_8000", false, func() func(int) {
		var pool mbuf.Pool
		data := make([]byte, 8000)
		head := pool.AllocCluster()
		tail := pool.AllocCluster()
		head.Append(data[:head.Cap()])
		tail.Append(data[head.Len():])
		head.SetNext(tail)
		return func(n int) {
			for i := 0; i < n; i++ {
				c, _ := pool.Copy(head, 0, len(data))
				pool.Free(c)
			}
		}
	}},
	{"checksum.sum_8000", false, func() func(int) { return sumKernel(8000) }},
	{"checksum.copysum_8000", false, func() func(int) {
		src, dst := make([]byte, 8000), make([]byte, 8000)
		return func(n int) {
			for i := 0; i < n; i++ {
				sink = checksum.CopyAndSum(dst, src)
			}
		}
	}},
	{"atm.aal34_roundtrip_8040", true, func() func(int) { return aal34RoundTrip(8040) }},

	// fanin-10k: scale.
	{"sim.heap_pushpop_d16k", true, func() func(int) { return heapPushPop(16384) }},
	{"atm.switch_forward_fifo", true, func() func(int) { return switchForward(nil) }},
	{"pcb.lookup_list500", false, func() func(int) { return pcbLookup(500, false, false) }},
	{"pcb.lookup_hash10k", false, func() func(int) { return pcbLookup(10000, true, false) }},
	{"stats.add_streaming", false, func() func(int) {
		s := stats.NewSample(stats.Config{Streaming: true})
		return func(n int) {
			for i := 0; i < n; i++ {
				s.Add(float64(i & 1023))
			}
		}
	}},
	{"lab.new_fattree_1k", true, func() func(int) {
		cfg := lab.Config{Link: lab.LinkATM, Fabric: lab.FabricFatTree, Seed: 1, HashPCBs: true}
		return func(n int) {
			for i := 0; i < n; i++ {
				sink = lab.NewTopology(cfg, 1001)
			}
		}
	}},

	// fanin-10k-sharded: the barrier.
	{"lab.cluster_round", false, clusterRound},

	// loaded-grid: queue disciplines, the rival transport, the hub reset.
	{"atm.switch_forward_droptail", true, func() func(int) { return switchForward(atm.NewDropTail(0)) }},
	{"atm.switch_forward_red", true, func() func(int) { return switchForward(atm.NewRED(0, 0, 0, 0, 0, 1)) }},
	{"atm.switch_forward_drr", true, func() func(int) { return switchForward(atm.NewDRR(0, 0)) }},
	{"rudp.header_roundtrip", false, func() func(int) {
		h := rudp.Header{Seq: 7, Ack: 5, AckBits: 0x15, Data: true}
		buf := make([]byte, rudp.MaxHeaderBytes)
		return func(n int) {
			for i := 0; i < n; i++ {
				h.Seq++
				got, _, err := rudp.ParseHeader(buf[:h.Marshal(buf)])
				if err != nil || got.Seq != h.Seq {
					panic("rudp header did not survive Marshal/ParseHeader")
				}
			}
		}
	}},
	{"lab.reset_hub33", true, func() func(int) {
		cfg := lab.Config{Link: lab.LinkATM, Seed: 1, Qdisc: lab.QdiscConfig{Kind: lab.QdiscRED}}
		l := lab.NewTopology(cfg, 33)
		if _, err := (workload.FanIn{Size: 200, Requests: 2, Warmup: 1}).Run(l); err != nil {
			panic(err)
		}
		return resetKernel(l, cfg)
	}},
}

// sink keeps results the compiler could otherwise discard.
var sink any

// heapPushPop schedules one event and runs one, at a steady queue depth.
func heapPushPop(depth int) func(int) {
	env := sim.NewEnv()
	noop := func() {}
	x := uint64(1)
	next := func() sim.Time {
		x = x*6364136223846793005 + 1442695040888963407
		return env.Now() + 1 + sim.Time(x>>54)
	}
	for i := 0; i < depth; i++ {
		env.At(next(), "k", noop)
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			env.At(next(), "k", noop)
			env.Step()
		}
	}
}

type callLoop struct {
	n     int
	child sim.Frame
}

func (f *callLoop) Step(p *sim.Proc) {
	if f.n == 0 {
		p.Return()
		return
	}
	f.n--
	p.Call(f.child)
}

type returnFrame struct{}

func (returnFrame) Step(p *sim.Proc) { p.Return() }

// procCallReturn pushes and pops one frame on a process's stack.
func procCallReturn() func(int) {
	env := sim.NewEnv()
	var child sim.Frame = returnFrame{}
	return func(n int) {
		env.Spawn("k", &callLoop{n: n, child: child})
		env.Run()
	}
}

type waitLoop struct {
	n int
	w *sim.WaitQueue
}

func (f *waitLoop) Step(p *sim.Proc) {
	if f.n == 0 {
		p.Return()
		return
	}
	f.n--
	f.w.Wait(p)
}

// procParkWake parks a process on a wait queue and wakes it from an event.
func procParkWake() func(int) {
	env := sim.NewEnv()
	w := env.NewWaitQueue("k")
	var tick func()
	tick = func() {
		if w.Wake() {
			env.After(1, "tick", tick)
		}
	}
	return func(n int) {
		env.Spawn("k", &waitLoop{n: n, w: w})
		env.After(1, "tick", tick)
		env.Run()
	}
}

func sumKernel(size int) func(int) {
	buf := make([]byte, size)
	for i := range buf {
		buf[i] = byte(i)
	}
	return func(n int) {
		var s uint16
		for i := 0; i < n; i++ {
			s += checksum.SumOptimized(buf)
		}
		sink = s
	}
}

// aal34RoundTrip segments one datagram into cells (CRC-10 and HEC
// computed) and reassembles it (both checked).
func aal34RoundTrip(size int) func(int) {
	seg := atm.Segmenter{VCI: atm.DefaultVCI}
	var reasm atm.Reassembler
	data := make([]byte, size)
	var cells []atm.Cell
	return func(n int) {
		for i := 0; i < n; i++ {
			cells = seg.SegmentAppend(cells[:0], data)
			var got []byte
			for c := range cells {
				if _, err := atm.ParseHeader(&cells[c]); err != nil {
					panic(err)
				}
				var err error
				if got, err = reasm.Push(&cells[c]); err != nil {
					panic(err)
				}
			}
			if len(got) != size {
				panic(fmt.Sprintf("reassembled %d of %d bytes", len(got), size))
			}
		}
	}
}

// pcbLookup looks connections up in a table of the given population:
// the same key every time (a cache hit) or round-robin over every key.
func pcbLookup(entries int, hash, sameKey bool) func(int) {
	t := pcb.Table{UseHash: hash}
	keys := make([]pcb.Key, entries)
	for i := range keys {
		keys[i] = pcb.Key{LocalAddr: lab.BaseAddr, LocalPort: workload.Port,
			RemoteAddr: lab.BaseAddr + 1 + uint32(i), RemotePort: uint16(1024 + i%60000)}
		t.Insert(&pcb.PCB{Key: keys[i]})
	}
	k := 0
	return func(n int) {
		for i := 0; i < n; i++ {
			if !sameKey {
				if k++; k == entries {
					k = 0
				}
			}
			if p, _ := t.Lookup(keys[k]); p == nil {
				panic("pcb lookup missed an inserted key")
			}
		}
	}
}

// switchForward forwards cells from one port of a two-port switch to the
// other through an installed VC — bursts of 16 cells over four VCs, so
// the egress queue and DRR's flow table are not trivially empty — and
// drains the event loop. A nil qd is the switch's built-in FIFO.
func switchForward(qd atm.Qdisc) func(int) {
	const burst, vcs = 16, 4
	env := sim.NewEnv()
	model := cost.DECstation5000()
	sw := atm.NewSwitch(env)
	in := atm.NewAdapter(kern.New(env, model, "in"))
	out := atm.NewAdapter(kern.New(env, model, "out"))
	sw.AttachPort(in)
	sw.AttachPort(out)
	if qd != nil {
		sw.Port(1).SetQdisc(qd)
	}
	var cells [vcs]atm.Cell
	for v := range cells {
		vci := atm.DefaultVCI + uint16(v)
		sw.AddVC(0, vci, 1, vci)
		seg := atm.Segmenter{VCI: vci}
		cells[v] = seg.Segment(make([]byte, 100))[0] // a first cell: no frame-end interrupt
	}
	port := sw.Port(0)
	return func(n int) {
		for done := 0; done < n; done += burst {
			for i := 0; i < burst; i++ {
				port.InjectCell(cells[i%vcs])
			}
			env.Run()
			for i := 0; i < burst; i++ {
				if _, ok := out.PopRx(); !ok {
					panic("switch lost a cell on an uncongested port")
				}
			}
		}
	}
}

func resetKernel(l *lab.Lab, cfg lab.Config) func(int) {
	return func(n int) {
		for i := 0; i < n; i++ {
			if err := l.Reset(cfg, 0); err != nil {
				panic(err)
			}
		}
	}
}

// clusterRound prices one barrier round of a 2-shard cluster: no-op
// events alternate between the shards, spaced two lookaheads apart, so
// every round releases exactly one shard for exactly one event. The
// reported time is wall-clock per round, not per event.
func clusterRound() func(int) {
	c, err := lab.NewCluster(lab.Config{Link: lab.LinkATM, Fabric: lab.FabricFatTree, Seed: 1, HashPCBs: true}, 257, 2)
	if err != nil || c.NumShards() != 2 {
		panic(fmt.Sprintf("cluster kernel: %d shards, err %v", c.NumShards(), err))
	}
	c.Run() // retire the service processes' spawn events
	envs := [2]*sim.Env{c.Shards[0].Env, c.Shards[1].Env}
	gap := 2 * c.Lookahead()
	noop := func() {}
	return func(n int) {
		at := envs[0].Now()
		if t := envs[1].Now(); t > at {
			at = t
		}
		for i := 0; i < n; i++ {
			at += gap
			envs[i%2].At(at, "k", noop)
		}
		before := c.Rounds()
		c.Run()
		if got := c.Rounds() - before; got != int64(n) {
			panic(fmt.Sprintf("cluster kernel: %d rounds for %d events", got, n))
		}
	}
}

// runKernels times every kernel and returns "<name>_ns" and, where
// declared, "<name>_allocs". smoke runs each once, briefly.
func runKernels(smoke bool) map[string]float64 {
	reps, rep, batch := kernelReps, kernelRep, kernelBatch
	if smoke {
		reps, rep, batch = 1, time.Millisecond, 100*time.Microsecond
	}
	out := map[string]float64{}
	for _, k := range kernels {
		ns, allocs := timeKernel(k, reps, rep, batch)
		out[k.name+"_ns"] = ns
		if k.allocs {
			out[k.name+"_allocs"] = allocs
		}
	}
	sink = nil // or the last fixture stays in every later live-heap sample
	return out
}

func timeKernel(k kernel, reps int, rep, batch time.Duration) (nsPerOp, allocsPerOp float64) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "bench: kernel %s: %v\n", k.name, r)
			panic(r)
		}
	}()
	run := k.setup()
	n := 1
	for {
		start := time.Now()
		run(n)
		if time.Since(start) >= batch || n >= 1<<24 {
			break
		}
		n *= 2
	}
	ns := make([]float64, reps)
	al := make([]float64, reps)
	var m0, m1 runtime.MemStats
	for r := range ns {
		runtime.ReadMemStats(&m0)
		ops := 0
		start := time.Now()
		for time.Since(start) < rep {
			run(n)
			ops += n
		}
		el := time.Since(start)
		runtime.ReadMemStats(&m1)
		ns[r] = float64(el.Nanoseconds()) / float64(ops)
		al[r] = float64(m1.Mallocs-m0.Mallocs) / float64(ops)
	}
	return median(ns), median(al)
}
