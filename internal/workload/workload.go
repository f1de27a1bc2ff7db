// Package workload implements the pluggable traffic generators that
// drive lab topologies: the paper's echo benchmark, one-way bulk
// transfer, request/response fan-in (M clients hammering one server),
// and connection churn (open/close storms that exercise real PCB insert
// and delete under live populations). A Generator is pure configuration;
// Run spawns its processes on a freshly built (or freshly reset —
// lab.Lab.Reset restores bit-identical initial state) Lab and consumes
// that lab's event loops, so each run needs its own pristine topology —
// exactly the shape the sweep engine (internal/runner) parallelizes
// over and its worker-affine testbed cache recycles. Every generator has
// one run body, written against the lab's cluster (sharded.go): a serial
// lab is the one-shard case. Every frame that moves a byte — request and
// response, bulk stream, cross flow — is written once, against the
// transport contract (transport.go), and none of them names a stack.
//
// Every generator participates in per-packet tracing: when the lab was
// built with lab.Config.PacketTrace, Run returns the merged event
// stream in Result.Events. The echo generator reports exactly the
// paper's measured window, cut by time at its first measured write; the
// others report the whole run so timelines include connection setup. See
// docs/METHODOLOGY.md.
package workload

import (
	"bytes"
	"fmt"

	"repro/internal/lab"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Port is the well-known port every workload server listens on.
const Port = 9007

// Result is the outcome of one workload run.
type Result struct {
	Workload string
	// Requests counts completed measured operations (echo round trips,
	// fan-in requests, churn connection cycles, bulk transfers).
	Requests int
	// Errors counts harness-visible failures: payload mismatches and
	// short transfers.
	Errors int
	// Bytes is the application payload carried by measured operations.
	Bytes int64
	// Elapsed is the virtual time from the start of the run to the last
	// measured completion (teardown timers excluded).
	Elapsed sim.Time
	// Latencies holds one per-operation latency per measured operation,
	// in deterministic order: client index major, operation index minor.
	// Nil when the generator ran with streaming statistics — then the
	// per-operation stream was folded into constant-memory aggregates as
	// it happened (see Sample) instead of being retained.
	Latencies []sim.Time
	// Events is the merged per-packet trace of the run, present only
	// when the topology was built with lab.Config.PacketTrace. For the
	// echo workload it covers the measured iterations (matching the
	// paper's instrumentation window); for the other generators it
	// covers the whole run including connection setup.
	Events []trace.HostEvent
	// Recoveries holds one sample per client-visible outage the fault
	// workload survived: the virtual time from a client first detecting
	// its server gone to its first completed request afterwards. Nil for
	// every other generator. Order is deterministic: client-major.
	Recoveries []sim.Time

	// agg is the streaming aggregate when the generator ran with
	// stats.Config.Streaming; nil in exact mode.
	agg *stats.Sample
}

// Sample aggregates the latencies in microseconds: exact runs build the
// sample from the retained Latencies; streaming runs return the
// constant-memory aggregate that absorbed each latency as it completed.
func (r *Result) Sample() *stats.Sample {
	if r.agg != nil {
		return r.agg
	}
	var s stats.Sample
	s.Grow(len(r.Latencies))
	for _, v := range r.Latencies {
		s.Add(v.Micros())
	}
	return &s
}

// Generator produces traffic on an assembled topology. Host 0 is the
// server; every other host is a client. Run consumes the event loops of
// the lab's cluster — one loop for a lab from lab.NewTopology, one per
// shard for a lab.Cluster's — and must be called once per freshly built
// (or reset) Lab.
type Generator interface {
	Name() string
	Run(l *lab.Lab) (*Result, error)
}

// Echo is the paper's §1.2 round-trip benchmark, delegated to
// lab.RunEcho so workload-engine runs reproduce the paper tables'
// numbers exactly. It uses Hosts[0] and Hosts[1]; extra hosts idle.
type Echo struct {
	Size       int // payload bytes per round trip (default 4)
	Iterations int // measured round trips (default 100)
	Warmup     int // unmeasured round trips (default 8)
}

// Name implements Generator.
func (Echo) Name() string { return "echo" }

// Run implements Generator. A traced echo reports its measured window
// only: lab.RunEcho stamps the first measured write and Lab.PacketEvents
// cuts the run's events there by time, preserving the paper's warmup
// exclusion.
func (g Echo) Run(l *lab.Lab) (*Result, error) {
	size, iters, warm := defInt(g.Size, 4), defInt(g.Iterations, 100), defInt(g.Warmup, 8)
	res, err := l.RunEcho(size, iters, warm)
	if err != nil {
		return nil, err
	}
	r := &Result{
		Workload:  "echo",
		Requests:  len(res.RTTs),
		Errors:    res.CorruptEchoes,
		Bytes:     int64(size) * int64(len(res.RTTs)),
		Latencies: res.RTTs,
	}
	// Last measured completion, not Env.Now(): RunEcho's event loop has
	// already drained teardown timers by the time it returns.
	if len(res.Windows) > 0 {
		r.Elapsed = res.Windows[len(res.Windows)-1].ReadReturn
	}
	collectTrace(l, r)
	return r, nil
}

// collectTrace attaches the merged packet-event stream to a result when
// the topology was built with tracing armed.
func collectTrace(l *lab.Lab, r *Result) {
	if l.Config.PacketTrace {
		r.Events = l.PacketEvents()
	}
}

// FanIn is the hub workload: every client host opens one connection to
// the server and issues request/response exchanges concurrently, so the
// server demultiplexes interleaved segments across a live connection
// population — the situation §3's PCB discussion is about, with every
// connection carrying traffic.
type FanIn struct {
	Size     int // request and response payload bytes (default 200)
	Requests int // measured requests per client (default 20)
	Warmup   int // unmeasured requests per client (default 2)
	// Stagger spaces client start times: client i connects at i×Stagger
	// of virtual time. Zero — the default, and the golden-output
	// setting — starts every client at time zero, an unmetered SYN
	// storm; at thousands of hosts a stagger in the RTT range keeps the
	// handshake backlog from collapsing into retransmission cascades.
	Stagger sim.Time
	// Stats selects the latency aggregation: the zero value retains
	// every observation (exact quantiles, required for golden outputs);
	// Streaming folds latencies into constant-memory estimators, the
	// 10,000-host setting.
	Stats stats.Config
	// Cross, when non-nil, runs heavy-tailed background flows beside the
	// measured clients (see CrossTraffic) — the loaded regime. Cross
	// flows share client adapters and the server's CPU but connect to
	// their own sink port, so they contend without being measured.
	Cross *CrossTraffic
	// Transport selects the measured connections' transport: "tcp" (the
	// default) or "rudp", the reliable-UDP rival stack (internal/rudp).
	// Cross traffic always rides TCP either way.
	Transport string
	// Faults schedules deterministic fault events against the topology
	// before traffic starts (see sim.FaultSchedule): link flaps stall
	// clients behind retransmission backoff without failing them. A lab
	// sharded several ways accepts only the shard-safe kinds (link flips).
	Faults sim.FaultSchedule
}

// Name implements Generator.
func (FanIn) Name() string { return "fanin" }

// Run implements Generator.
func (g FanIn) Run(l *lab.Lab) (*Result, error) {
	size, reqs, warm := defInt(g.Size, 200), defInt(g.Requests, 20), defInt(g.Warmup, 2)
	tr, err := pickTransport(g.Transport, size, l)
	if err != nil {
		return nil, err
	}
	c := l.Cluster()
	if len(g.Faults) > 0 {
		if err := c.ScheduleFaults(g.Faults); err != nil {
			return nil, err
		}
	}
	r := newRun(c, g.Cross.flows(), reqs, g.Stats)
	ln, err := tr.listen(l.Hosts[0], Port)
	if err != nil {
		return nil, err
	}
	spawnEchoServer(c.EnvOf(0), "server.fanin", ln, len(r.clients))
	if g.Cross != nil {
		if err := g.Cross.spawn(r); err != nil {
			return nil, err
		}
	}
	cs, frames := tr.clients(l.Hosts[1:], Port), make([]fanInClientFrame, len(r.clients))
	for ci := range frames {
		// Stagger slots ascend, so each loop's share of the starts is one
		// heap entry, not a wake parked per client until its slot.
		f := &frames[ci]
		*f = fanInClientFrame{r: r, ci: ci, c: cs[ci], size: size, warm: warm, reqs: reqs}
		c.EnvOf(ci+1).SpawnIn(&f.proc, sim.Time(ci)*g.Stagger, "", f)
	}
	return r.finish("fanin", "requests", size)
}

// Churn is the open/close storm: every client host repeatedly opens a
// connection to the server, performs one request/response exchange, and
// closes — real PCB insert and delete at both ends, with TIME_WAIT
// entries accumulating ahead of live connections on the BSD
// head-inserted list. One measured operation is a full cycle from
// connect to response.
type Churn struct {
	Conns int // connection cycles per client (default 10)
	Size  int // payload bytes exchanged per connection (default 64)
	// Stats selects the latency aggregation (see FanIn.Stats).
	Stats stats.Config
}

// Name implements Generator.
func (Churn) Name() string { return "churn" }

// Run implements Generator.
func (g Churn) Run(l *lab.Lab) (*Result, error) {
	conns, size := defInt(g.Conns, 10), defInt(g.Size, 64)
	c, tr := l.Cluster(), tcpTransport{}
	r := newRun(c, 0, conns, g.Stats)
	ln, err := tr.listen(l.Hosts[0], Port)
	if err != nil {
		return nil, err
	}
	spawnEchoServer(c.EnvOf(0), "server.churn", ln, len(r.clients)*conns)
	cs, frames := tr.clients(l.Hosts[1:], Port), make([]churnClientFrame, len(r.clients))
	for ci := range frames {
		f := &frames[ci]
		*f = churnClientFrame{r: r, ci: ci, c: cs[ci], size: size, conns: conns}
		env := c.EnvOf(ci + 1)
		env.SpawnIn(&f.proc, env.Now(), "", f)
	}
	return r.finish("churn", "cycles", size)
}

// Bulk is the one-way throughput workload: every client streams Bytes to
// the server and closes; the measured latency of one operation is the
// time from the client's first write to the server consuming the final
// byte (EOF), so it includes delivery, not just buffering. It rides TCP
// only, Nagle on.
type Bulk struct {
	Bytes int // payload per client (default 65536)
	Chunk int // client write size (default 8192)
}

// Name implements Generator.
func (Bulk) Name() string { return "bulk" }

// Run implements Generator.
func (g Bulk) Run(l *lab.Lab) (*Result, error) {
	total, chunk := defInt(g.Bytes, 65536), defInt(g.Chunk, 8192)
	c, tr := l.Cluster(), tcpTransport{nagle: true}
	r := newRun(c, 0, 0, stats.Config{})

	// A transfer's source and sink hold its stamps, a slot per client like
	// the run's own arrays: srcs[ci] is written only by client ci's loop,
	// sinks[ci] only by the server's.
	srcs := make([]streamFrame, len(r.clients))
	sinks := make([]drainFrame, len(r.clients))

	ln, err := tr.listen(l.Hosts[0], Port)
	if err != nil {
		return nil, err
	}
	// Connections may be accepted in any order (loss can delay one
	// client's handshake past another's), so the accepted connection's
	// remote address — not the accept order — identifies the transfer.
	env := c.EnvOf(0)
	env.Spawn("server.bulk", &acceptLoopFrame{
		ln: ln, n: len(sinks),
		accepted: func(al *acceptLoopFrame, _ int, cn conn, _ *serveEchoFrame) bool {
			i := int(cn.peer() - lab.HostAddr(1))
			if i < 0 || i >= len(sinks) {
				r.server().fail(env, fmt.Errorf("workload: bulk connection from unexpected address %#x", cn.peer()))
				return false
			}
			sinks[i] = drainFrame{c: cn, al: al, me: r.server(), wd: r.wd, name: "server.bulk", i: i}
			env.Spawn("", &sinks[i])
			return true
		},
	})
	cs := tr.clients(l.Hosts[1:], Port)
	for ci := range srcs {
		srcs[ci] = streamFrame{c: cs[ci], total: total, chunk: chunk, me: &r.clients[ci], ci: ci}
		c.EnvOf(ci+1).Spawn("", &srcs[ci])
	}

	if err := r.wait(); err != nil {
		return nil, err
	}
	res := &Result{Workload: "bulk", Requests: len(srcs)}
	for ci := range srcs {
		done, received := sinks[ci].doneAt, sinks[ci].received
		if received != total {
			res.Errors++
		}
		res.Latencies = append(res.Latencies, done-srcs[ci].startAt)
		res.Bytes += int64(received)
		if done > res.Elapsed {
			res.Elapsed = done
		}
	}
	collectTrace(l, res)
	return res, nil
}

// exchangeBufs is a client's request and response buffers, taken from
// its loop's arena once the client has something to exchange and given
// back when it ends (see takeBuf for why the hold is uncounted).
type exchangeBufs struct{ msg, buf []byte }

// take takes both buffers and fills the request from the loop's RNG — a
// draw every seeded result depends on.
func (b *exchangeBufs) take(env *sim.Env, size int) {
	b.msg = takeBuf(env, size)
	env.RNG().Fill(b.msg)
	b.buf = takeBuf(env, size)
}

// put gives back whatever take took.
func (b *exchangeBufs) put(env *sim.Env) {
	env.Arena().Put(b.msg)
	env.Arena().Put(b.buf)
	b.msg, b.buf = nil, nil
}

// fanInClientFrame is one fan-in client, spawned at its stagger slot:
// connect once, then run warm+reqs request/response exchanges, measuring
// the post-warmup ones. All simulation state flows through p.Env() — the
// loop that owns the client's host — and everything it records goes to
// the client's own slots, so the frame runs unchanged at any shard count
// and over any transport. A run's clients are one slab, each holding the
// process it is the root of.
type fanInClientFrame struct {
	proc             sim.Proc
	r                *run
	ci               int
	c                conn
	size, warm, reqs int

	pc    int
	bufs  exchangeBufs
	i     int
	start sim.Time
}

// Name implements sim.Namer.
func (f *fanInClientFrame) Name() string { return indexed("client", f.ci, ".fanin") }

// Step drives the fan-in client.
func (f *fanInClientFrame) Step(p *sim.Proc) {
	me := &f.r.clients[f.ci]
	for {
		switch f.pc {
		case 0: // connect to the server
			f.pc = 2
			f.c.dial(p)
			return
		case 2: // prepare buffers
			if _, err := f.c.done(); err != nil {
				me.fail(p.Env(), err)
				p.Return()
				return
			}
			f.bufs.take(p.Env(), f.size)
			f.pc = 3
		case 3: // request loop head
			if f.i >= f.warm+f.reqs {
				f.pc = 5
				f.c.close(p)
				return
			}
			f.start = p.Env().Now()
			f.pc = 4
			f.c.exchange(p, f.bufs.msg, f.bufs.buf)
			return
		case 4: // fold in one exchange's result
			if _, err := f.c.done(); err != nil {
				me.fail(p.Env(), fmt.Errorf("client %d request %d: %w", f.ci, f.i, err))
				f.bufs.put(p.Env())
				p.Return()
				return
			}
			if f.i >= f.warm {
				f.r.record(f.ci, f.start, p.Env().Now(), bytes.Equal(f.bufs.buf, f.bufs.msg))
			}
			f.i++
			f.pc = 3
		case 5: // closed; done
			f.bufs.put(p.Env())
			p.Return()
			return
		}
	}
}

// churnClientFrame is one churn client: each cycle connects, exchanges
// once, and closes; the whole cycle is the measured operation. Like the
// fan-in client it touches only p.Env() and its own slots, holds its
// process, and takes its buffers from the loop's arena.
type churnClientFrame struct {
	proc        sim.Proc
	r           *run
	ci          int
	c           conn
	size, conns int

	pc    int
	bufs  exchangeBufs
	k     int
	start sim.Time
}

// Name implements sim.Namer.
func (f *churnClientFrame) Name() string { return indexed("client", f.ci, ".churn") }

// Step drives the churn client.
func (f *churnClientFrame) Step(p *sim.Proc) {
	me := &f.r.clients[f.ci]
	for {
		switch f.pc {
		case 0: // prepare buffers
			f.bufs.take(p.Env(), f.size)
			f.pc = 1
		case 1: // cycle head: connect
			if f.k >= f.conns {
				f.bufs.put(p.Env())
				p.Return()
				return
			}
			f.start = p.Env().Now()
			f.pc = 2
			f.c.dial(p)
			return
		case 2: // connected; run the exchange
			if _, err := f.c.done(); err != nil {
				me.fail(p.Env(), fmt.Errorf("client %d cycle %d: %w", f.ci, f.k, err))
				f.bufs.put(p.Env())
				p.Return()
				return
			}
			f.pc = 3
			f.c.exchange(p, f.bufs.msg, f.bufs.buf)
			return
		case 3: // record the cycle and close
			if _, err := f.c.done(); err != nil {
				me.fail(p.Env(), fmt.Errorf("client %d cycle %d: %w", f.ci, f.k, err))
				f.bufs.put(p.Env())
				p.Return()
				return
			}
			f.r.record(f.ci, f.start, p.Env().Now(), bytes.Equal(f.bufs.buf, f.bufs.msg))
			f.pc = 4
			f.c.close(p)
			return
		case 4: // next cycle
			f.k++
			f.pc = 1
		}
	}
}

func defInt(v, d int) int {
	if v <= 0 {
		return d
	}
	return v
}
