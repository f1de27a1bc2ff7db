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
	"bytes"
	"fmt"

	"repro/internal/lab"
	"repro/internal/sim"
	"repro/internal/stats"
)

// faultAcceptMax is the accept-loop bound for the fault servers: clients
// reconnect an unknowable number of times, so the loop accepts until the
// listener dies (crash) or the run drains with the acceptor parked.
const faultAcceptMax = 1 << 30

// The clients' recovery policy: each connect attempt and each
// request/response exchange has a deadline, on whose expiry the client
// aborts the connection and treats the operation as failed; each
// reconnect attempt waits a backoff first; and a client that fails that
// many reconnects in a row gives up and fails the run.
const (
	faultDeadline = 250 * sim.Millisecond
	faultBackoff  = 100 * sim.Millisecond
	faultRetries  = 16
)

// FaultRecovery is the crash-study generator. Every client paces
// requests at Interval so the configured crash lands mid-stream, then
// rides out the outage: deadline-abort, backoff, reconnect, retry the
// interrupted request. Host crashes mutate cross-shard state, so a lab
// sharded several ways refuses the run (Cluster.ScheduleFaults' shard-
// safety check).
type FaultRecovery struct {
	Size     int      // request/response payload bytes (default 200)
	Requests int      // measured requests per client (default 20)
	Interval sim.Time // per-client request pacing (default 50ms)
	CrashAt  sim.Time // server crash time (default 500ms)
	Downtime sim.Time // crash-to-restart gap (default 1s)
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
	return g
}

// Run implements Generator.
func (g FaultRecovery) Run(l *lab.Lab) (*Result, error) {
	g = g.withDefaults()
	tr, err := pickTransport(g.Transport, g.Size, l)
	if err != nil {
		return nil, err
	}
	c := l.Cluster()
	if err := c.ScheduleFaults(sim.CrashSchedule(0, g.CrashAt, g.Downtime)); err != nil {
		return nil, err
	}
	r := newRun(c, 0, g.Requests, stats.Config{})

	// The server: listen, serve echoes, and — via the restart hook — come
	// back after the crash, which takes the listener down with the host.
	env := c.EnvOf(0)
	var cur listener
	listen := func() error {
		ln, err := tr.listen(l.Hosts[0], Port)
		if err != nil {
			return err
		}
		cur = ln
		spawnEchoServer(env, "server.faults", ln, faultAcceptMax)
		return nil
	}
	if err := listen(); err != nil {
		return nil, err
	}
	l.OnHostCrash(0, func() {
		if cur != nil {
			cur.crash()
			cur = nil
		}
	})
	l.OnHostRestart(0, func() {
		if err := listen(); err != nil {
			r.server().fail(env, err)
		}
	})

	recov := make([][]sim.Time, len(r.clients))
	cs, frames := tr.clients(l.Hosts[1:], Port), make([]faultClientFrame, len(r.clients))
	for ci := range frames {
		f := &frames[ci]
		*f = faultClientFrame{r: r, ci: ci, c: cs[ci], g: g, recov: &recov[ci]}
		env := c.EnvOf(ci + 1)
		env.SpawnIn(&f.proc, env.Now(), "", f)
	}

	res, err := r.finish("faults", "requests", g.Size)
	if err != nil {
		return nil, err
	}
	for _, rs := range recov {
		res.Recoveries = append(res.Recoveries, rs...)
	}
	return res, nil
}

// faultClientFrame is one client of the fault workload: paced requests,
// a deadline on every connect that can block and on every exchange,
// bounded-retry reconnects, one recovery sample per survived outage. It
// holds its process and takes its buffers as the fan-in client does.
type faultClientFrame struct {
	proc  sim.Proc
	r     *run
	ci    int
	c     conn
	g     FaultRecovery
	recov *[]sim.Time

	pc       int
	env      *sim.Env
	deadline sim.Timer // on the operation in progress; aborts it
	attempts int       // consecutive failed connect attempts
	down     sim.Time
	bufs     exchangeBufs
	i        int
	start    sim.Time
}

// arm starts the deadline on the operation about to block.
func (f *faultClientFrame) arm() {
	f.deadline.Set(f.env, f.env.Now()+faultDeadline, "faults.deadline")
}

// TimerFired implements sim.TimerOwner: the deadline passed, so the
// operation in progress is aborted.
func (f *faultClientFrame) TimerFired(*sim.Timer) { f.c.abort() }

// Name implements sim.Namer.
func (f *faultClientFrame) Name() string { return indexed("client", f.ci, ".faults") }

// Step drives the client.
func (f *faultClientFrame) Step(p *sim.Proc) {
	me := &f.r.clients[f.ci]
	for {
		switch f.pc {
		case 0: // prepare buffers
			f.env = p.Env()
			f.deadline.Bind(f)
			f.bufs.take(f.env, f.g.Size)
			f.pc = 1
		case 1: // connect attempt, under the deadline if it can block
			if f.c.blocks() {
				f.arm()
			}
			f.pc = 2
			f.c.dial(p)
			return
		case 2: // connect result
			f.deadline.Stop()
			if _, err := f.c.done(); err != nil {
				f.attempts++
				if f.attempts > faultRetries {
					me.fail(f.env, fmt.Errorf("client %d: gave up after %d reconnect attempts: %w",
						f.ci, f.attempts, err))
					f.bufs.put(f.env)
					p.Return()
					return
				}
				f.pc = 1
				if !p.Sleep(faultBackoff) {
					return
				}
				continue
			}
			f.attempts = 0
			f.pc = 3
		case 3: // request loop head: pace to the request's slot
			if f.i >= f.g.Requests {
				f.pc = 6
				f.c.close(p)
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
			f.pc = 5
			f.c.exchange(p, f.bufs.msg, f.bufs.buf)
			return
		case 5: // exchange result
			f.deadline.Stop()
			if _, err := f.c.done(); err != nil {
				// Outage detected: stamp its start (first detection only),
				// reap the dead connection, back off, reconnect, and retry
				// this same request.
				if f.down == 0 {
					f.down = f.env.Now()
				}
				f.c.reap()
				f.pc = 1
				if !p.Sleep(faultBackoff) {
					return
				}
				continue
			}
			now := f.env.Now()
			if f.down != 0 {
				*f.recov = append(*f.recov, now-f.down)
				f.down = 0
			}
			f.r.record(f.ci, f.start, now, bytes.Equal(f.bufs.buf, f.bufs.msg))
			f.i++
			f.pc = 3
		case 6: // closed; done
			f.bufs.put(f.env)
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
