// The transport seam: what a workload needs from a transport stack,
// stated once. Every frame in this package that moves a byte — the accept
// loop, the echo handler, the fan-in, churn and fault-recovery clients,
// the byte-stream source and drain sink under Bulk and the cross flows —
// is written against these three interfaces and never names a stack; a
// transport is one file implementing them (tcp.go over internal/tcp and
// internal/sock, rudp.go over internal/rudp) and the only file importing
// its stack. What genuinely differs between stacks — a connect that blocks
// versus a dial that is local, a byte stream read in a loop versus one
// message per receive, socket buffers to reap after an abort — lives
// behind the contract.
//
// An operation that takes a *sim.Proc is call-like, in the sim.Frame
// sense: the calling frame invokes it as its last action before Step
// returns and is re-entered once the operation has completed, when done
// reports the outcome. A conn has at most one operation in flight.
package workload

import (
	"fmt"
	"strconv"

	"repro/internal/lab"
	"repro/internal/sim"
)

// TransportTCP and TransportRUDP name FanIn.Transport values.
const (
	TransportTCP  = "tcp"
	TransportRUDP = "rudp"
)

// transport opens both ends of the workload service on a stack.
type transport interface {
	// listen binds port on the server host h.
	listen(h *lab.Host, port uint16) (listener, error)
	// client returns host h's end of a connection to the server's port,
	// not yet dialed. A client may dial, close and dial again.
	client(h *lab.Host, port uint16) conn
}

// listener is the server's bound port.
type listener interface {
	// accept waits for the next connection (call-like); accepted then
	// returns it, or the error that ended the listener (its host crashed).
	accept(p *sim.Proc)
	accepted() (conn, error)
	// crash tears down whatever listener state the lab's own host-crash
	// handling cannot see.
	crash()
}

// conn is one end of a connection.
type conn interface {
	// blocks reports whether dial waits on the network, so that a caller
	// bounding its operations by a deadline must bound the dial too.
	blocks() bool
	// dial connects to the server (call-like).
	dial(p *sim.Proc)
	// exchange sends msg and receives the len(buf)-byte response into buf
	// (call-like); a short or failed response is an error.
	exchange(p *sim.Proc, msg, buf []byte)
	// recv reads what has arrived, at most len(buf) bytes (call-like);
	// done reports how many, zero at the end of the stream.
	recv(p *sim.Proc, buf []byte)
	// send writes b (call-like).
	send(p *sim.Proc, b []byte)
	// close ends the stream in order (call-like).
	close(p *sim.Proc)
	// done reports the completed operation's outcome: the byte count of a
	// recv, and the error of any.
	done() (n int, err error)
	// abort fails the operation in flight and kills the connection; it is
	// what a deadline timer calls, from event context.
	abort()
	// reap releases a connection a failed exchange left dead, so that the
	// next dial starts clean.
	reap()
	// peer is the remote host's address, once connected.
	peer() uint32
}

// pickTransport resolves a generator's Transport field for messages of
// size bytes on l's interfaces.
func pickTransport(name string, size int, l *lab.Lab) (transport, error) {
	switch name {
	case "", TransportTCP:
		return tcpTransport{}, nil
	case TransportRUDP:
		return rudpFor(size, l.MTU())
	}
	return nil, fmt.Errorf("workload: unknown transport %q (tcp, rudp)", name)
}

// acceptLoopFrame accepts n connections, invoking the accepted callback
// (which typically spawns a per-connection server process) for each.
// The callback returns false to abandon the loop after recording an
// error. A failed accept — the listener died under it when its host
// crashed — ends the loop; a restart supervisor spawns the successor.
type acceptLoopFrame struct {
	ln       listener
	n        int
	accepted func(al *acceptLoopFrame, i int, c conn) bool

	pc int
	i  int

	// bufs recycles the read buffers of the handlers this loop spawned: a
	// handler borrows one for the life of its connection and hands it
	// back at EOF, so a server allocates as many as it ever had
	// connections open at once, not one per connection accepted. The loop
	// and its handlers all run on the server host's event loop, so the
	// list needs no lock.
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

// putBuf takes back a buffer no operation references any more.
func (f *acceptLoopFrame) putBuf(b []byte) { f.bufs = append(f.bufs, b) }

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
			f.ln.accept(p)
			return
		case 1: // hand it to the callback
			c, err := f.ln.accepted()
			if err != nil || !f.accepted(f, f.i, c) {
				p.Return()
				return
			}
			f.i++
			f.pc = 0
		}
	}
}

// spawnEchoServer starts the echo server shared by the fan-in, churn and
// fault workloads on env, the server host's event loop: an accept loop
// for n connections on ln, each served by its own serveEchoFrame process
// named after the loop.
func spawnEchoServer(env *sim.Env, name string, ln listener, n int) {
	env.Spawn(name, &acceptLoopFrame{
		ln: ln, n: n,
		accepted: func(al *acceptLoopFrame, i int, c conn) bool {
			f := &serveEchoFrame{c: c, al: al, name: name, i: i}
			env.SpawnIn(&f.proc, env.Now(), "", f)
			return true
		},
	})
}

// indexed composes the name of the i-th of a family of processes
// ("client", 7, ".fanin"). The workload frames call it from their Name
// methods (sim.Namer): ten thousand clients are named when a diagnostic
// prints one, not when they are spawned.
func indexed(prefix string, i int, suffix string) string {
	return prefix + strconv.Itoa(i) + suffix
}

// serveEchoFrame is the echo handler: write back whatever arrives, until
// the end of the stream, then close. It holds the process it is the root
// of, so a handler is one allocation.
type serveEchoFrame struct {
	proc sim.Proc
	c    conn
	al   *acceptLoopFrame // lends the read buffer
	name string           // the accept loop's, and
	i    int              // which of its connections this is

	pc  int
	buf []byte
}

// Name implements sim.Namer.
func (f *serveEchoFrame) Name() string { return indexed(f.name+".conn", f.i, "") }

// Step drives the echo handler.
func (f *serveEchoFrame) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0: // read the next chunk
			if f.buf == nil {
				f.buf = f.al.getBuf()
			}
			f.pc = 1
			f.c.recv(p, f.buf)
			return
		case 1: // echo it back, or close at the end of the stream
			n, err := f.c.done()
			if err != nil || n == 0 {
				f.al.putBuf(f.buf)
				f.buf = nil
				f.pc = 3
				f.c.close(p)
				return
			}
			f.pc = 2
			f.c.send(p, f.buf[:n])
			return
		case 2: // next chunk, unless the write failed
			if _, err := f.c.done(); err != nil {
				f.al.putBuf(f.buf)
				f.buf = nil
				p.Return()
				return
			}
			f.pc = 0
		case 3: // closed; done
			p.Return()
			return
		}
	}
}

// streamFrame is the byte-stream source: dial, once the dial has succeeded
// fill the payload (once: the fill draws from the loop's RNG stream, so
// its position is part of every seeded result), write total bytes in
// chunk-sized sends, close. Bulk runs it as client ci's process, failing
// into me; a cross flow calls it once per transfer and reads err.
type streamFrame struct {
	c            conn
	total, chunk int
	me           *participant // nil when called
	ci           int

	pc      int
	msg     []byte
	sent    int
	startAt sim.Time // the latest transfer's first write
	err     error    // and its outcome
}

// Name implements sim.Namer.
func (f *streamFrame) Name() string { return indexed("client", f.ci, ".bulk") }

// Step drives the source.
func (f *streamFrame) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0: // connect
			f.pc = 1
			f.c.dial(p)
			return
		case 1: // prepare the payload and start the clock
			if _, err := f.c.done(); err != nil {
				f.finish(p, err)
				return
			}
			if f.msg == nil {
				f.msg = make([]byte, f.chunk)
				p.Env().RNG().Fill(f.msg)
			}
			f.startAt = p.Env().Now()
			f.pc = 2
		case 2: // write the next chunk, or close after the last
			if f.sent >= f.total {
				f.pc = 4
				f.c.close(p)
				return
			}
			n := min(f.chunk, f.total-f.sent)
			f.sent += n
			f.pc = 3
			f.c.send(p, f.msg[:n])
			return
		case 3: // fold in one write's result
			if _, err := f.c.done(); err != nil {
				f.finish(p, err)
				return
			}
			f.pc = 2
		case 4: // closed; done
			f.finish(p, nil)
			return
		}
	}
}

// finish ends the transfer with its outcome, rewound for the next call.
func (f *streamFrame) finish(p *sim.Proc, err error) {
	f.pc, f.sent, f.err = 0, 0, err
	if err != nil && f.me != nil {
		f.me.fail(p.Env(), err)
	}
	p.Return()
}

// drainFrame is the sink for one accepted connection: read to the end of
// the stream, counting, stamp the time the end arrived, and close.
type drainFrame struct {
	c    conn
	al   *acceptLoopFrame // lends the read buffer
	me   *participant     // the server's slot
	wd   *sim.Watchdog    // when non-nil, every chunk read is progress
	name string           // the accept loop's, and
	i    int              // which of its connections this is

	pc       int
	buf      []byte
	received int
	doneAt   sim.Time
}

// Name implements sim.Namer.
func (f *drainFrame) Name() string { return indexed(f.name+".conn", f.i, "") }

// Step drives the sink.
func (f *drainFrame) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0: // read the next chunk
			if f.buf == nil {
				f.buf = f.al.getBuf()
			}
			f.pc = 1
			f.c.recv(p, f.buf)
			return
		case 1: // account for it, or finish at the end of the stream
			n, err := f.c.done()
			if err != nil || n == 0 {
				f.al.putBuf(f.buf)
				f.buf = nil
			}
			if err != nil {
				f.me.fail(p.Env(), err)
				p.Return()
				return
			}
			if n == 0 {
				f.doneAt = p.Env().Now()
				f.pc = 2
				f.c.close(p)
				return
			}
			f.received += n
			if f.wd != nil {
				f.wd.Progress()
			}
			f.pc = 0
		case 2: // closed; done
			p.Return()
			return
		}
	}
}
