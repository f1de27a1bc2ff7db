// Package workload implements the pluggable traffic generators that
// drive lab topologies: the paper's echo benchmark, one-way bulk
// transfer, request/response fan-in (M clients hammering one server),
// and connection churn (open/close storms that exercise real PCB insert
// and delete under live populations). A Generator is pure configuration;
// Run spawns its processes on a freshly built (or freshly reset —
// lab.Lab.Reset restores bit-identical initial state) Lab and consumes
// that lab's event loop, so each run needs its own pristine topology —
// exactly the shape the sweep engine (internal/runner) parallelizes
// over and its worker-affine testbed cache recycles.
//
// Every generator participates in per-packet tracing: when the lab was
// built with lab.Config.PacketTrace, Run returns the merged event
// stream in Result.Events. The echo generator traces exactly the
// paper's measured iterations; the others trace the whole run so
// timelines include connection setup. See docs/METHODOLOGY.md.
package workload

import (
	"fmt"

	"repro/internal/lab"
	"repro/internal/rudp"
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/stats"
	"repro/internal/tcp"
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
	for _, v := range r.Latencies {
		s.Add(v.Micros())
	}
	return &s
}

// Generator produces traffic on an assembled topology. Host 0 is the
// server; every other host is a client. Run consumes the lab's event
// loop and must be called once per freshly built Lab.
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

// Run implements Generator.
func (g Echo) Run(l *lab.Lab) (*Result, error) {
	size, iters, warm := defInt(g.Size, 4), defInt(g.Iterations, 100), defInt(g.Warmup, 8)
	res, err := l.RunEcho(size, iters, warm)
	if err != nil {
		return nil, err
	}
	return echoResult(l, size, res), nil
}

// echoResult folds a lab echo run into the workload result shape. Shared
// by the serial path above and the sharded path (Cluster.RunEcho returns
// the same lab.EchoResult).
func echoResult(l *lab.Lab, size int, res *lab.EchoResult) *Result {
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
	return r
}

// collectTrace attaches the merged packet-event stream to a result when
// the topology was built with tracing armed.
func collectTrace(l *lab.Lab, r *Result) {
	if l.Config.PacketTrace {
		r.Events = l.PacketEvents()
	}
}

// startTrace turns recording on at the head of a traced run. The echo
// generator does not use it — lab.RunEcho flips tracing at its measured
// iterations, preserving the paper's warmup exclusion — but the other
// generators trace from the first handshake so timelines show the whole
// connection life.
func startTrace(l *lab.Lab) {
	if l.Config.PacketTrace {
		l.EnableTracing()
	}
}

// armWatchdog arms the lab's no-progress watchdog for a generator run —
// unless the caller armed one already (a test choosing a short horizon).
// Every multi-client generator arms it by default: a run that stops
// completing operations aborts with a diagnostic naming the stuck
// connections instead of spinning its event loop forever. A disarmed
// healthy run and an armed one produce identical results — the watchdog
// schedules no events and draws no randomness.
func armWatchdog(l *lab.Lab) *sim.Watchdog {
	if w := l.Watchdog(); w != nil {
		return w
	}
	return l.ArmWatchdog(0)
}

// armClusterWatchdog is armWatchdog for the sharded path: one shared
// watchdog spanning every shard's event loop.
func armClusterWatchdog(c *lab.Cluster) *sim.Watchdog {
	if w := c.Lab.Watchdog(); w != nil {
		return w
	}
	return c.ArmWatchdog(0)
}

// latSink collects per-operation latencies for the multi-client
// generators. In exact mode (the zero stats.Config) it retains every
// latency per client, exactly as the generators always have, and emits
// them client-major into Result.Latencies. With stats.Config.Streaming
// it folds each latency into a constant-memory aggregate in completion
// order instead — deterministic (the event loop is), but unordered
// per client, which only the reservoir's contents can observe; the
// per-client counts are still tracked so short-changed clients fail
// loudly either way.
type latSink struct {
	counts    []int
	perClient [][]sim.Time
	// times retains each operation's completion time alongside perClient.
	// Only sharded streaming runs arm it: they must buffer per client and
	// replay the stream into the aggregate in canonical completion order
	// afterwards, since shards complete operations concurrently.
	times [][]sim.Time
	agg   *stats.Sample
	// wd, when armed, receives a progress report per recorded operation,
	// so the no-progress watchdog distinguishes a run that is merely slow
	// from one that has stopped completing work.
	wd *sim.Watchdog
}

// newLatSink sizes a sink for the client count per the stats config.
func newLatSink(clients int, cfg stats.Config) *latSink {
	s := &latSink{counts: make([]int, clients)}
	if cfg.Streaming {
		s.agg = stats.NewSample(cfg)
	} else {
		s.perClient = make([][]sim.Time, clients)
	}
	return s
}

// newShardSink builds a single-slot sink for one client of a sharded
// run: always per-client retention (an order-independent collection the
// merge step folds canonically), with completion times kept when a
// streaming aggregate will be replayed afterwards.
func newShardSink(retainTimes bool) *latSink {
	s := &latSink{counts: make([]int, 1), perClient: make([][]sim.Time, 1)}
	if retainTimes {
		s.times = make([][]sim.Time, 1)
	}
	return s
}

// record folds in one measured operation for client ci completing at at.
func (s *latSink) record(ci int, lat, at sim.Time) {
	if s.wd != nil {
		s.wd.Progress()
	}
	s.counts[ci]++
	if s.agg != nil {
		s.agg.Add(lat.Micros())
		return
	}
	s.perClient[ci] = append(s.perClient[ci], lat)
	if s.times != nil {
		s.times[ci] = append(s.times[ci], at)
	}
}

// finish validates that every client measured want operations and moves
// the collected latencies into the result.
func (s *latSink) finish(r *Result, want int, unit string) error {
	for ci, n := range s.counts {
		if n != want {
			return fmt.Errorf("workload: client %d measured %d of %d %s",
				ci, n, want, unit)
		}
	}
	if s.agg != nil {
		r.agg = s.agg
		r.Requests = s.agg.N()
		return nil
	}
	for _, lats := range s.perClient {
		r.Latencies = append(r.Latencies, lats...)
	}
	r.Requests = len(r.Latencies)
	return nil
}

// FanIn is the hub workload: every client host opens one connection to
// the server and issues request/response exchanges concurrently, so the
// server demultiplexes interleaved segments across a live connection
// population — the situation §3's PCB discussion is about, with real
// connections instead of the synthetic ExtraPCBs knob.
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
	// clients behind retransmission backoff without failing them. The
	// sharded path accepts only the shard-safe kinds (link flips).
	Faults sim.FaultSchedule
}

// Name implements Generator.
func (FanIn) Name() string { return "fanin" }

// Run implements Generator.
func (g FanIn) Run(l *lab.Lab) (*Result, error) {
	size, reqs, warm := defInt(g.Size, 200), defInt(g.Requests, 20), defInt(g.Warmup, 2)
	if err := checkTransport(g.Transport, size); err != nil {
		return nil, err
	}
	clients := len(l.Hosts) - 1
	r := &Result{Workload: "fanin"}
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}

	if len(g.Faults) > 0 {
		if err := l.ScheduleFaults(g.Faults); err != nil {
			return nil, err
		}
	}
	wd := armWatchdog(l)
	startTrace(l)
	if g.Transport == TransportRUDP {
		e, err := rudp.Listen(l.Hosts[0].Kern, l.Hosts[0].UDP, Port)
		if err != nil {
			return nil, err
		}
		l.Env.Spawn("server.fanin",
			&rudpAcceptLoopFrame{e: e, env: l.Env, n: clients})
	} else {
		ln, err := l.Hosts[0].TCP.Listen(Port)
		if err != nil {
			return nil, err
		}
		spawnEchoServer(l.Env, "server.fanin", ln, clients)
	}
	if g.Cross != nil {
		if err := g.Cross.spawn(l, fail); err != nil {
			return nil, err
		}
	}

	sink := newLatSink(clients, g.Stats)
	sink.wd = wd
	var last sim.Time
	for ci := 0; ci < clients; ci++ {
		host := l.Hosts[ci+1]
		if g.Transport == TransportRUDP {
			l.Env.Spawn(fmt.Sprintf("client%d.fanin", ci), &rudpFanInClientFrame{
				host: host, ci: ci, si: ci, size: size, warm: warm, reqs: reqs,
				startAt: sim.Time(ci) * g.Stagger,
				sink:    sink, last: &last, r: r, fail: fail,
			})
			continue
		}
		l.Env.Spawn(fmt.Sprintf("client%d.fanin", ci), &fanInClientFrame{
			host: host, ci: ci, si: ci, size: size, warm: warm, reqs: reqs,
			startAt: sim.Time(ci) * g.Stagger,
			sink:    sink, last: &last, r: r, fail: fail,
		})
	}

	l.Env.Run()
	if runErr != nil {
		return nil, runErr
	}
	if err := wd.Err(); err != nil {
		return nil, err
	}
	if err := sink.finish(r, reqs, "requests"); err != nil {
		return nil, err
	}
	r.Bytes = int64(r.Requests) * int64(size) * 2
	r.Elapsed = last
	collectTrace(l, r)
	return r, nil
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
	clients := len(l.Hosts) - 1
	r := &Result{Workload: "churn"}
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}

	wd := armWatchdog(l)
	startTrace(l)
	ln, err := l.Hosts[0].TCP.Listen(Port)
	if err != nil {
		return nil, err
	}
	spawnEchoServer(l.Env, "server.churn", ln, clients*conns)

	sink := newLatSink(clients, g.Stats)
	sink.wd = wd
	var last sim.Time
	for ci := 0; ci < clients; ci++ {
		host := l.Hosts[ci+1]
		l.Env.Spawn(fmt.Sprintf("client%d.churn", ci), &churnClientFrame{
			host: host, ci: ci, si: ci, size: size, conns: conns,
			sink: sink, last: &last, r: r, fail: fail,
		})
	}

	l.Env.Run()
	if runErr != nil {
		return nil, runErr
	}
	if err := wd.Err(); err != nil {
		return nil, err
	}
	if err := sink.finish(r, conns, "cycles"); err != nil {
		return nil, err
	}
	r.Bytes = int64(r.Requests) * int64(size) * 2
	r.Elapsed = last
	collectTrace(l, r)
	return r, nil
}

// Bulk is the one-way throughput workload: every client streams Bytes to
// the server and closes; the measured latency of one operation is the
// time from the client's first write to the server consuming the final
// byte (EOF), so it includes delivery, not just buffering.
type Bulk struct {
	Bytes int // payload per client (default 65536)
	Chunk int // client write size (default 8192)
}

// Name implements Generator.
func (Bulk) Name() string { return "bulk" }

// Run implements Generator.
func (g Bulk) Run(l *lab.Lab) (*Result, error) {
	total, chunk := defInt(g.Bytes, 65536), defInt(g.Chunk, 8192)
	clients := len(l.Hosts) - 1
	r := &Result{Workload: "bulk"}
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}

	starts := make([]sim.Time, clients)
	dones := make([]sim.Time, clients)
	received := make([]int, clients)

	wd := armWatchdog(l)
	startTrace(l)
	ln, err := l.Hosts[0].TCP.Listen(Port)
	if err != nil {
		return nil, err
	}
	// Connections may be accepted in any order (loss can delay one
	// client's handshake past another's), so the accepted connection's
	// remote address — not the accept order — identifies the transfer.
	l.Env.Spawn("server.bulk", &acceptLoopFrame{
		ln: ln, n: clients,
		accepted: func(al *acceptLoopFrame, _ int, op *tcp.AcceptOp) bool {
			i := int(op.C.Key().RemoteAddr - lab.HostAddr(1))
			if i < 0 || i >= clients {
				fail(fmt.Errorf("workload: bulk connection from unexpected address %#x",
					op.C.Key().RemoteAddr))
				return false
			}
			l.Env.Spawn(fmt.Sprintf("server.bulk.conn%d", i),
				&bulkConnFrame{so: op.So, al: al, i: i, dones: dones,
					received: received, fail: fail, wd: wd})
			return true
		},
	})

	for ci := 0; ci < clients; ci++ {
		host := l.Hosts[ci+1]
		l.Env.Spawn(fmt.Sprintf("client%d.bulk", ci), &bulkClientFrame{
			host: host, ci: ci, total: total, chunk: chunk,
			starts: starts, fail: fail,
		})
	}

	l.Env.Run()
	if runErr != nil {
		return nil, runErr
	}
	if err := wd.Err(); err != nil {
		return nil, err
	}
	var last sim.Time
	for ci := 0; ci < clients; ci++ {
		if received[ci] != total {
			r.Errors++
		}
		r.Latencies = append(r.Latencies, dones[ci]-starts[ci])
		r.Bytes += int64(received[ci])
		if dones[ci] > last {
			last = dones[ci]
		}
	}
	r.Requests = clients
	r.Elapsed = last
	collectTrace(l, r)
	return r, nil
}

// acceptLoopFrame accepts n connections, invoking the accepted callback
// (which typically spawns a per-connection server process) for each.
// The callback returns false to abandon the loop after recording an
// error. A failed accept — the listener died under it when its host
// crashed — ends the loop; a restart supervisor spawns the successor.
type acceptLoopFrame struct {
	ln       *tcp.Listener
	n        int
	accepted func(al *acceptLoopFrame, i int, op *tcp.AcceptOp) bool

	pc int
	i  int
	op *tcp.AcceptOp

	// bufs recycles the read buffers of the handlers this loop spawned: a
	// handler borrows one for the life of its connection and hands it
	// back at EOF, so a server allocates as many as it ever had
	// connections open at once, not one per connection accepted. The loop
	// and its handlers all run on the server host's event loop, serial or
	// sharded, so the list needs no lock.
	bufs [][]byte
}

// serverBufLen is the read size of every per-connection server handler.
const serverBufLen = 16384

// getBuf lends a handler a read buffer of serverBufLen bytes.
func (f *acceptLoopFrame) getBuf() []byte {
	if n := len(f.bufs); n > 0 {
		b := f.bufs[n-1]
		f.bufs = f.bufs[:n-1]
		return b
	}
	return make([]byte, serverBufLen)
}

// putBuf takes back a buffer no socket operation references any more.
func (f *acceptLoopFrame) putBuf(b []byte) { f.bufs = append(f.bufs, b) }

// spawnEchoServer starts the TCP echo server shared by the fan-in, churn
// and fault workloads on env, the server host's event loop: an accept
// loop for n connections on ln, each served by its own serveEchoFrame
// process named after the loop.
func spawnEchoServer(env *sim.Env, name string, ln *tcp.Listener, n int) {
	connName := name + ".conn%d"
	env.Spawn(name, &acceptLoopFrame{
		ln: ln, n: n,
		accepted: func(al *acceptLoopFrame, i int, op *tcp.AcceptOp) bool {
			op.C.SetNoDelay(true)
			env.Spawn(fmt.Sprintf(connName, i), &serveEchoFrame{so: op.So, al: al})
			return true
		},
	})
}

// Step drives the accept loop.
func (f *acceptLoopFrame) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0: // accept the next connection
			if f.i >= f.n {
				p.Return()
				return
			}
			f.pc = 1
			f.op = f.ln.Accept(p)
			return
		case 1: // hand it to the callback
			op := f.op
			f.op = nil
			if op.Err != nil {
				p.Return()
				return
			}
			if !f.accepted(f, f.i, op) {
				p.Return()
				return
			}
			f.i++
			f.pc = 0
		}
	}
}

// serveEchoFrame is the streaming echo handler shared by the fan-in and
// churn servers: write back whatever arrives, until EOF, then close.
type serveEchoFrame struct {
	so *sock.Socket
	al *acceptLoopFrame // lends the read buffer

	pc   int
	buf  []byte
	n    int
	recv *sock.RecvOp
	send *sock.SendOp
}

// Step drives the echo handler.
func (f *serveEchoFrame) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0: // read the next chunk
			if f.buf == nil {
				f.buf = f.al.getBuf()
			}
			f.pc = 1
			f.recv = f.so.Recv(p, f.buf)
			return
		case 1: // echo it back, or close on EOF/error
			if f.recv.Err != nil || f.recv.N == 0 {
				f.al.putBuf(f.buf)
				f.buf = nil
				f.pc = 3
				f.so.Close(p)
				return
			}
			f.n = f.recv.N
			f.recv = nil
			f.pc = 2
			f.send = f.so.Send(p, f.buf[:f.n])
			return
		case 2: // next chunk, unless the write failed
			if f.send.Err != nil {
				f.al.putBuf(f.buf)
				f.buf = nil
				p.Return()
				return
			}
			f.send = nil
			f.pc = 0
		case 3: // closed; done
			p.Return()
			return
		}
	}
}

// exchangeFrame sends msg and receives exactly len(buf) bytes back; Err
// carries the failure, if any, once the frame returns.
type exchangeFrame struct {
	so       *sock.Socket
	msg, buf []byte

	pc    int
	total int
	recv  *sock.RecvOp
	send  *sock.SendOp

	Err error
}

// Step drives the request/response exchange.
func (f *exchangeFrame) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0: // write the request
			f.pc = 1
			f.send = f.so.Send(p, f.msg)
			return
		case 1: // request written; read the response
			if f.send.Err != nil {
				f.Err = f.send.Err
				p.Return()
				return
			}
			f.send = nil
			f.total = 0
			f.pc = 2
		case 2: // read loop head
			if f.total >= len(f.buf) {
				p.Return()
				return
			}
			f.pc = 3
			f.recv = f.so.Recv(p, f.buf[f.total:])
			return
		case 3: // fold in one read's result
			if f.recv.Err != nil {
				f.Err = f.recv.Err
				p.Return()
				return
			}
			if f.recv.N == 0 {
				f.Err = fmt.Errorf("workload: unexpected EOF after %d of %d bytes",
					f.total, len(f.buf))
				p.Return()
				return
			}
			f.total += f.recv.N
			f.recv = nil
			f.pc = 2
		}
	}
}

// fanInClientFrame is one fan-in client: wait out its stagger slot,
// connect once, then run warm+reqs request/response exchanges, measuring
// the post-warmup ones. All simulation state flows through p.Env() —
// the client's own shard in a sharded run, the lab's only env serially
// — and all shared accumulators (sink slot si, last, r, fail) are
// per-client in sharded runs, so the frame itself is shard-agnostic.
type fanInClientFrame struct {
	host             *lab.Host
	ci, si           int
	size, warm, reqs int
	startAt          sim.Time
	sink             *latSink
	last             *sim.Time
	r                *Result
	fail             func(error)

	pc       int
	conn     *tcp.ConnectOp
	so       *sock.Socket
	msg, buf []byte
	i        int
	start    sim.Time
	ex       *exchangeFrame
}

// Step drives the fan-in client.
func (f *fanInClientFrame) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0: // wait for the stagger slot (a no-op at the default 0)
			f.pc = 1
			if f.startAt > 0 && !p.SleepUntil(f.startAt) {
				return
			}
		case 1: // connect to the server
			f.pc = 2
			f.conn = f.host.TCP.Connect(p, lab.HostAddr(0), Port)
			return
		case 2: // configure and prepare buffers
			if f.conn.Err != nil {
				f.fail(f.conn.Err)
				p.Return()
				return
			}
			f.so = f.conn.So
			f.conn.C.SetNoDelay(true)
			f.conn = nil
			f.msg = make([]byte, f.size)
			p.Env().RNG().Fill(f.msg)
			f.buf = make([]byte, f.size)
			f.pc = 3
		case 3: // request loop head
			if f.i >= f.warm+f.reqs {
				f.pc = 5
				f.so.Close(p)
				return
			}
			f.start = p.Env().Now()
			f.ex = &exchangeFrame{so: f.so, msg: f.msg, buf: f.buf}
			f.pc = 4
			p.Call(f.ex)
			return
		case 4: // fold in one exchange's result
			if f.ex.Err != nil {
				f.fail(fmt.Errorf("client %d request %d: %w", f.ci, f.i, f.ex.Err))
				p.Return()
				return
			}
			f.ex = nil
			if f.i >= f.warm {
				now := p.Env().Now()
				lat := now - f.start
				f.sink.record(f.si, lat, now)
				if now > *f.last {
					*f.last = now
				}
				if !bytesEqual(f.buf, f.msg) {
					f.r.Errors++
				}
			}
			f.i++
			f.pc = 3
		case 5: // closed; done
			p.Return()
			return
		}
	}
}

// churnClientFrame is one churn client: each cycle connects, exchanges
// once, and closes; the whole cycle is the measured operation. Like the
// fan-in client it is shard-agnostic: p.Env() and per-client
// accumulators are all it touches.
type churnClientFrame struct {
	host        *lab.Host
	ci, si      int
	size, conns int
	sink        *latSink
	last        *sim.Time
	r           *Result
	fail        func(error)

	pc       int
	conn     *tcp.ConnectOp
	so       *sock.Socket
	msg, buf []byte
	k        int
	start    sim.Time
	ex       *exchangeFrame
}

// Step drives the churn client.
func (f *churnClientFrame) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0: // prepare buffers
			f.msg = make([]byte, f.size)
			p.Env().RNG().Fill(f.msg)
			f.buf = make([]byte, f.size)
			f.pc = 1
		case 1: // cycle head: connect
			if f.k >= f.conns {
				p.Return()
				return
			}
			f.start = p.Env().Now()
			f.pc = 2
			f.conn = f.host.TCP.Connect(p, lab.HostAddr(0), Port)
			return
		case 2: // connected; run the exchange
			if f.conn.Err != nil {
				f.fail(fmt.Errorf("client %d cycle %d: %w", f.ci, f.k, f.conn.Err))
				p.Return()
				return
			}
			f.so = f.conn.So
			f.conn.C.SetNoDelay(true)
			f.conn = nil
			f.ex = &exchangeFrame{so: f.so, msg: f.msg, buf: f.buf}
			f.pc = 3
			p.Call(f.ex)
			return
		case 3: // record the cycle and close
			if f.ex.Err != nil {
				f.fail(fmt.Errorf("client %d cycle %d: %w", f.ci, f.k, f.ex.Err))
				p.Return()
				return
			}
			f.ex = nil
			now := p.Env().Now()
			lat := now - f.start
			f.sink.record(f.si, lat, now)
			if now > *f.last {
				*f.last = now
			}
			if !bytesEqual(f.buf, f.msg) {
				f.r.Errors++
			}
			f.pc = 4
			f.so.Close(p)
			return
		case 4: // next cycle
			f.so = nil
			f.k++
			f.pc = 1
		}
	}
}

// bulkConnFrame is the bulk server's per-connection sink: drain until
// EOF, stamping the completion time.
type bulkConnFrame struct {
	so       *sock.Socket
	al       *acceptLoopFrame // lends the read buffer
	i        int
	dones    []sim.Time
	received []int
	fail     func(error)
	wd       *sim.Watchdog

	pc   int
	buf  []byte
	recv *sock.RecvOp
}

// Step drives the sink.
func (f *bulkConnFrame) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0: // read the next chunk
			if f.buf == nil {
				f.buf = f.al.getBuf()
			}
			f.pc = 1
			f.recv = f.so.Recv(p, f.buf)
			return
		case 1: // account for it, or finish at EOF
			if f.recv.Err != nil || f.recv.N == 0 {
				f.al.putBuf(f.buf)
				f.buf = nil
			}
			if f.recv.Err != nil {
				f.fail(f.recv.Err)
				p.Return()
				return
			}
			if f.recv.N == 0 {
				f.dones[f.i] = p.Env().Now()
				f.recv = nil
				f.pc = 2
				f.so.Close(p)
				return
			}
			f.received[f.i] += f.recv.N
			if f.wd != nil {
				f.wd.Progress()
			}
			f.recv = nil
			f.pc = 0
		case 2: // closed; done
			p.Return()
			return
		}
	}
}

// bulkClientFrame streams total bytes to the server in chunk-sized
// writes, then closes.
type bulkClientFrame struct {
	host         *lab.Host
	ci           int
	total, chunk int
	starts       []sim.Time
	fail         func(error)

	pc   int
	conn *tcp.ConnectOp
	so   *sock.Socket
	msg  []byte
	sent int
	n    int
	send *sock.SendOp
}

// Step drives the source.
func (f *bulkClientFrame) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0: // connect
			f.pc = 1
			f.conn = f.host.TCP.Connect(p, lab.HostAddr(0), Port)
			return
		case 1: // prepare the payload and start the clock
			if f.conn.Err != nil {
				f.fail(f.conn.Err)
				p.Return()
				return
			}
			f.so = f.conn.So
			f.conn = nil
			f.msg = make([]byte, f.chunk)
			p.Env().RNG().Fill(f.msg)
			f.starts[f.ci] = p.Env().Now()
			f.sent = 0
			f.pc = 2
		case 2: // write loop head
			if f.sent >= f.total {
				f.pc = 4
				f.so.Close(p)
				return
			}
			f.n = f.chunk
			if f.n > f.total-f.sent {
				f.n = f.total - f.sent
			}
			f.pc = 3
			f.send = f.so.Send(p, f.msg[:f.n])
			return
		case 3: // fold in one write's result
			if f.send.Err != nil {
				f.fail(f.send.Err)
				p.Return()
				return
			}
			f.send = nil
			f.sent += f.n
			f.pc = 2
		case 4: // closed; done
			p.Return()
			return
		}
	}
}

func defInt(v, d int) int {
	if v <= 0 {
		return d
	}
	return v
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
