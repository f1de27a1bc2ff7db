// The fault-recovery workload: fan-in traffic that survives a mid-run
// server crash. The server host crashes at a scheduled time (its TCP
// stack resets, in-flight state is lost, the access link goes dark) and
// restarts after a scheduled downtime; a supervisor re-listens on
// restart. Clients detect the outage with a response deadline, abort
// the dead connection, and reconnect under a bounded-retry policy,
// recording one recovery-time sample per survived outage — the metric
// core.RunFaultStudy compares across transports. The no-progress
// watchdog is armed like every multi-client generator, so a recovery
// that never happens aborts with a diagnostic instead of hanging.
package workload

import (
	"fmt"

	"repro/internal/lab"
	"repro/internal/rudp"
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// faultAcceptMax is the accept-loop bound for the fault servers: clients
// reconnect an unknowable number of times, so the loop accepts until the
// listener dies (crash) or the run drains with the acceptor parked.
const faultAcceptMax = 1 << 30

// FaultRecovery is the crash-study generator. Every client paces
// requests at Interval so the configured crash lands mid-stream, then
// rides out the outage: deadline-abort, backoff, reconnect, retry the
// interrupted request. Host crashes mutate cross-shard state, so the
// generator is serial-only (lab.ScheduleFaults enforces this).
type FaultRecovery struct {
	Size     int      // request/response payload bytes (default 200)
	Requests int      // measured requests per client (default 20)
	Interval sim.Time // per-client request pacing (default 50ms)
	CrashAt  sim.Time // server crash time (default 500ms)
	Downtime sim.Time // crash-to-restart gap (default 1s)
	// Deadline bounds each connect attempt and each request/response
	// exchange; on expiry the client aborts the connection and treats
	// the operation as failed (default 250ms).
	Deadline sim.Time
	// Retries bounds consecutive failed reconnect attempts before the
	// client gives up and fails the run (default 16).
	Retries int
	// Backoff is the pause before each reconnect attempt (default 100ms).
	Backoff sim.Time
	// Transport selects "tcp" (default) or "rudp"; both ride the same
	// fault schedule, seeds, and recovery policy.
	Transport string
}

// Name implements Generator.
func (FaultRecovery) Name() string { return "faults" }

// withDefaults fills zero knobs.
func (g FaultRecovery) withDefaults() FaultRecovery {
	g.Size = defInt(g.Size, 200)
	g.Requests = defInt(g.Requests, 20)
	g.Interval = defDur(g.Interval, 50*sim.Millisecond)
	g.CrashAt = defDur(g.CrashAt, 500*sim.Millisecond)
	g.Downtime = defDur(g.Downtime, sim.Second)
	g.Deadline = defDur(g.Deadline, 250*sim.Millisecond)
	g.Retries = defInt(g.Retries, 16)
	g.Backoff = defDur(g.Backoff, 100*sim.Millisecond)
	return g
}

// Run implements Generator.
func (g FaultRecovery) Run(l *lab.Lab) (*Result, error) {
	g = g.withDefaults()
	if err := checkTransport(g.Transport, g.Size); err != nil {
		return nil, err
	}
	clients := len(l.Hosts) - 1
	r := &Result{Workload: "faults"}
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}

	if err := l.ScheduleFaults(sim.CrashSchedule(0, g.CrashAt, g.Downtime)); err != nil {
		return nil, err
	}
	wd := armWatchdog(l)
	startTrace(l)

	// The server: listen, serve echoes, and — via the restart hook —
	// come back after the crash. The rudp path also needs a crash hook:
	// the lab resets the TCP stack itself, but a workload-owned rudp
	// endpoint is invisible to it.
	if g.Transport == TransportRUDP {
		var cur *rudp.Endpoint
		listen := func() error {
			e, err := rudp.Listen(l.Hosts[0].Kern, l.Hosts[0].UDP, Port)
			if err != nil {
				return err
			}
			cur = e
			l.Env.Spawn("server.faults",
				&rudpAcceptLoopFrame{e: e, env: l.Env, n: faultAcceptMax})
			return nil
		}
		if err := listen(); err != nil {
			return nil, err
		}
		l.OnHostCrash(0, func() {
			if cur != nil {
				cur.Crash()
				cur = nil
			}
		})
		l.OnHostRestart(0, func() {
			if err := listen(); err != nil {
				fail(err)
			}
		})
	} else {
		listen := func() error {
			ln, err := l.Hosts[0].TCP.Listen(Port)
			if err != nil {
				return err
			}
			spawnEchoServer(l.Env, "server.faults", ln, faultAcceptMax)
			return nil
		}
		if err := listen(); err != nil {
			return nil, err
		}
		l.OnHostRestart(0, func() {
			if err := listen(); err != nil {
				fail(err)
			}
		})
	}

	sink := newLatSink(clients, stats.Config{})
	sink.wd = wd
	recov := make([][]sim.Time, clients)
	var last sim.Time
	for ci := 0; ci < clients; ci++ {
		host := l.Hosts[ci+1]
		if g.Transport == TransportRUDP {
			l.Env.Spawn(fmt.Sprintf("client%d.faults", ci), &rudpFaultClientFrame{
				host: host, ci: ci, g: g,
				sink: sink, recov: &recov[ci], last: &last, r: r, fail: fail,
			})
			continue
		}
		l.Env.Spawn(fmt.Sprintf("client%d.faults", ci), &faultClientFrame{
			host: host, ci: ci, g: g,
			sink: sink, recov: &recov[ci], last: &last, r: r, fail: fail,
		})
	}

	l.Env.Run()
	if runErr != nil {
		return nil, runErr
	}
	if err := wd.Err(); err != nil {
		return nil, err
	}
	if err := sink.finish(r, g.Requests, "requests"); err != nil {
		return nil, err
	}
	for _, rs := range recov {
		r.Recoveries = append(r.Recoveries, rs...)
	}
	r.Bytes = int64(r.Requests) * int64(g.Size) * 2
	r.Elapsed = last
	collectTrace(l, r)
	return r, nil
}

// faultClientFrame is one TCP client of the fault workload: paced
// requests, a deadline on every connect and exchange, bounded-retry
// reconnects, one recovery sample per survived outage.
type faultClientFrame struct {
	host  *lab.Host
	ci    int
	g     FaultRecovery
	sink  *latSink
	recov *[]sim.Time
	last  *sim.Time
	r     *Result
	fail  func(error)

	pc       int
	env      *sim.Env
	gen      uint64 // deadline generation; a bump disarms pending timers
	attempts int    // consecutive failed connect attempts
	down     sim.Time
	conn     *tcp.ConnectOp
	so       *sock.Socket
	c        *tcp.Conn
	msg, buf []byte
	i        int
	start    sim.Time
	ex       *exchangeFrame
}

// deadline fires when an armed operation deadline elapses; a stale
// generation means the operation completed and disarmed it since.
func (f *faultClientFrame) deadline(gen uint64) {
	if gen != f.gen {
		return
	}
	if f.conn != nil {
		f.conn.Abort()
		return
	}
	if f.c != nil {
		f.c.Abort()
	}
}

// arm schedules the operation deadline under a fresh generation.
func (f *faultClientFrame) arm() {
	f.gen++
	f.env.AfterArg(f.g.Deadline, "faults.deadline", f.deadline, f.gen)
}

// reap returns the dead socket's buffered chains to the pool: the
// connection is closed and no operation of ours is parked on it, so the
// buffers are safe to release — without this every outage would strand
// the aborted request's mbufs for the run's lifetime.
func (f *faultClientFrame) reap() {
	f.so.Snd.Drop(f.so.Snd.Len())
	f.so.Rcv.Drop(f.so.Rcv.Len())
	f.so, f.c = nil, nil
}

// Step drives the client.
func (f *faultClientFrame) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0: // prepare buffers
			f.env = p.Env()
			f.msg = make([]byte, f.g.Size)
			f.env.RNG().Fill(f.msg)
			f.buf = make([]byte, f.g.Size)
			f.pc = 1
		case 1: // connect attempt, deadline armed
			f.arm()
			f.pc = 2
			f.conn = f.host.TCP.Connect(p, lab.HostAddr(0), Port)
			return
		case 2: // connect result
			f.gen++ // disarm
			conn := f.conn
			f.conn = nil
			if conn.Err != nil {
				f.attempts++
				if f.attempts > f.g.Retries {
					f.fail(fmt.Errorf("client %d: gave up after %d reconnect attempts: %w",
						f.ci, f.attempts, conn.Err))
					p.Return()
					return
				}
				f.pc = 1
				if !p.Sleep(f.g.Backoff) {
					return
				}
				continue
			}
			f.so, f.c = conn.So, conn.C
			f.c.SetNoDelay(true)
			f.attempts = 0
			f.pc = 3
		case 3: // request loop head: pace to the request's slot
			if f.i >= f.g.Requests {
				f.pc = 6
				f.so.Close(p)
				return
			}
			f.pc = 4
			if target := sim.Time(f.i) * f.g.Interval; f.env.Now() < target {
				if !p.SleepUntil(target) {
					return
				}
			}
		case 4: // one exchange, deadline armed
			f.start = f.env.Now()
			f.arm()
			f.ex = &exchangeFrame{so: f.so, msg: f.msg, buf: f.buf}
			f.pc = 5
			p.Call(f.ex)
			return
		case 5: // exchange result
			f.gen++ // disarm
			ex := f.ex
			f.ex = nil
			if ex.Err != nil {
				// Outage detected: stamp its start (first detection only),
				// reap the dead connection, back off, reconnect, and retry
				// this same request.
				if f.down == 0 {
					f.down = f.env.Now()
				}
				f.reap()
				f.pc = 1
				if !p.Sleep(f.g.Backoff) {
					return
				}
				continue
			}
			now := f.env.Now()
			if f.down != 0 {
				*f.recov = append(*f.recov, now-f.down)
				f.down = 0
			}
			f.sink.record(f.ci, now-f.start, now)
			if now > *f.last {
				*f.last = now
			}
			if !bytesEqual(f.buf, f.msg) {
				f.r.Errors++
			}
			f.i++
			f.pc = 3
		case 6: // closed; done
			p.Return()
			return
		}
	}
}

// rudpFaultClientFrame is the rudp twin: redial instead of reconnect
// (rudp dialing is immediate — the first data packet carries setup), the
// same deadline/backoff/retry policy.
type rudpFaultClientFrame struct {
	host  *lab.Host
	ci    int
	g     FaultRecovery
	sink  *latSink
	recov *[]sim.Time
	last  *sim.Time
	r     *Result
	fail  func(error)

	pc       int
	env      *sim.Env
	gen      uint64
	attempts int
	down     sim.Time
	c        *rudp.Conn
	msg, buf []byte
	i        int
	start    sim.Time
	send     *rudp.SendOp
	recv     *rudp.RecvOp
}

// deadline aborts the in-flight exchange's connection on expiry.
func (f *rudpFaultClientFrame) deadline(gen uint64) {
	if gen != f.gen {
		return
	}
	if f.c != nil {
		f.c.Abort()
	}
}

// failExchange handles one failed send/recv: stamp the outage start,
// abort the stream (idempotent if the deadline already did), and drop
// the connection so the next attempt redials.
func (f *rudpFaultClientFrame) failExchange() {
	if f.down == 0 {
		f.down = f.env.Now()
	}
	f.c.Abort()
	f.c = nil
}

// Step drives the client.
func (f *rudpFaultClientFrame) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0: // prepare buffers
			f.env = p.Env()
			f.msg = make([]byte, f.g.Size)
			f.env.RNG().Fill(f.msg)
			f.buf = make([]byte, rudp.MaxMessage)
			f.pc = 1
		case 1: // dial (bounded attempts, though rudp dialing is local)
			c, err := rudp.Dial(f.host.Kern, f.host.UDP, lab.HostAddr(0), Port)
			if err != nil {
				f.attempts++
				if f.attempts > f.g.Retries {
					f.fail(fmt.Errorf("client %d: gave up after %d redials: %w",
						f.ci, f.attempts, err))
					p.Return()
					return
				}
				f.pc = 1
				if !p.Sleep(f.g.Backoff) {
					return
				}
				continue
			}
			f.c = c
			f.attempts = 0
			f.pc = 2
		case 2: // request loop head: pace to the request's slot
			if f.i >= f.g.Requests {
				f.pc = 7
				f.c.Close(p)
				return
			}
			f.pc = 3
			if target := sim.Time(f.i) * f.g.Interval; f.env.Now() < target {
				if !p.SleepUntil(target) {
					return
				}
			}
		case 3: // send the request; the deadline covers send through reply
			f.start = f.env.Now()
			f.gen++
			f.env.AfterArg(f.g.Deadline, "faults.deadline", f.deadline, f.gen)
			f.pc = 4
			f.send = f.c.Send(p, f.msg)
			return
		case 4: // sent; read the response
			send := f.send
			f.send = nil
			if send.Err != nil {
				f.gen++ // disarm
				f.failExchange()
				f.pc = 1
				if !p.Sleep(f.g.Backoff) {
					return
				}
				continue
			}
			f.pc = 5
			f.recv = f.c.Recv(p, f.buf)
			return
		case 5: // exchange result
			f.gen++ // disarm
			recv := f.recv
			f.recv = nil
			if recv.Err != nil || recv.N != f.g.Size {
				// An aborted stream surfaces as end-of-stream (N 0); any
				// short reply counts as the same outage.
				f.failExchange()
				f.pc = 1
				if !p.Sleep(f.g.Backoff) {
					return
				}
				continue
			}
			now := f.env.Now()
			if f.down != 0 {
				*f.recov = append(*f.recov, now-f.down)
				f.down = 0
			}
			f.sink.record(f.ci, now-f.start, now)
			if now > *f.last {
				*f.last = now
			}
			if !bytesEqual(f.buf[:f.g.Size], f.msg) {
				f.r.Errors++
			}
			f.i++
			f.pc = 2
		case 7: // closed; done
			p.Return()
			return
		}
	}
}

// defDur is defInt for durations.
func defDur(v, d sim.Time) sim.Time {
	if v <= 0 {
		return d
	}
	return v
}
