package tcp

import (
	"errors"
	"fmt"

	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/pcb"
	"repro/internal/sim"
	"repro/internal/sock"
)

// State is a TCP connection state (RFC 793).
type State int

// Connection states.
const (
	StateClosed State = iota
	StateListen
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
)

var stateNames = [...]string{
	"CLOSED", "LISTEN", "SYN_SENT", "SYN_RCVD", "ESTABLISHED",
	"FIN_WAIT_1", "FIN_WAIT_2", "CLOSE_WAIT", "CLOSING", "LAST_ACK",
	"TIME_WAIT",
}

// String returns the conventional state name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// defaultMSS is used before an interface MSS is known.
const defaultMSS = 512

// Timer constants. Granularities follow BSD (200 ms fast timer, 500 ms
// slow timer); TIME_WAIT is shortened from 2×30 s to keep simulations
// bounded without changing any measured path.
const (
	delackTimeout = 200 * sim.Millisecond
	minRTO        = 1 * sim.Second
	maxRTO        = 64 * sim.Second
	msl           = 500 * sim.Millisecond
)

// ErrReset is delivered to a socket whose connection received a RST.
var ErrReset = errors.New("tcp: connection reset by peer")

// ErrTimeout is delivered to a socket whose connection gave up after
// maxRexmtShift consecutive retransmission timeouts (BSD's ETIMEDOUT
// from tcp_timers).
var ErrTimeout = errors.New("tcp: connection timed out")

// ErrAborted is delivered to a socket whose application tore the
// connection down with Conn.Abort — a local deadline, not a peer event.
var ErrAborted = errors.New("tcp: connection aborted")

// ErrCrashed is delivered to every socket of a stack that suffered a
// simulated kernel crash (Stack.Crash).
var ErrCrashed = errors.New("tcp: host crashed")

// maxRexmtShift plays BSD's TCP_MAXRXTSHIFT: the number of consecutive
// backed-off retransmissions after which the connection is dropped
// rather than probed forever — without it, a FIN whose peer's PCB has
// already vanished (silent drop, no RST) retransmits eternally at
// maxRTO and the simulation never drains. BSD's value is 12 (~10
// minutes of patience); this simulation uses 32 (~30 minutes) because
// its hosts share one perfectly synchronized clock: an unstaggered
// 1,000-client connect storm collapses into deterministic lock-step
// retry waves no real network produces, and the slowest client needs
// ~26 simulated minutes to get through.
const maxRexmtShift = 32

// reassSeg is one out-of-order segment held for reassembly.
type reassSeg struct {
	seq Seq
	m   *mbuf.Mbuf
}

// Conn is one TCP connection (the tcpcb) and everything it owns, held by
// value so that a connection is one allocation: its socket (whose Proto
// points back here), its PCB (whose Owner does), its three timers, and
// the frames of the operations it runs. A *sock.Socket handed out by
// Socket, ConnectOp or AcceptOp is an interior pointer that keeps its
// Conn alive.
type Conn struct {
	S        *Stack
	K        *kern.Kernel
	listener *Listener // non-nil on passively opened connections
	state    State

	// Send sequence space.
	iss    Seq
	sndUna Seq // oldest unacknowledged
	sndNxt Seq // next to send
	sndMax Seq // highest ever sent
	sndWnd int // peer's advertised window

	// Receive sequence space.
	irs    Seq
	rcvNxt Seq
	rcvAdv Seq // highest window edge advertised to the peer

	mss      int
	cwnd     int
	ssthresh int
	noDelay  bool // disable Nagle when set

	// wantCksumOff is the local policy (stack configured for checksum
	// elimination); cksumOff becomes true only when BOTH ends carried
	// the Alternate Checksum Request on their SYNs (§4.2 / RFC 1146).
	// SYN segments themselves are always checksummed.
	wantCksumOff bool
	cksumOff     bool

	// ACK strategy flags.
	flagAckNow bool
	flagDelAck bool

	// finSent tracks whether our FIN occupies sequence space yet.
	finSent bool

	// outBusy marks an output invocation in progress (the splnet
	// serialization of tcp_output); outWait, below, queues callers that
	// found it busy.
	outBusy bool

	// Jacobson RTT estimation.
	srtt, rttvar sim.Time
	rtTiming     bool
	rtSeq        Seq
	rtStart      sim.Time
	rexmtShift   uint

	// The protocol timers, bound to the connection (TimerFired). Each
	// owns at most one heap entry however often it is re-armed — setRexmt
	// runs once per transmitted data segment and scheduleDelack once per
	// received one, squarely on the hot path; twoMSL releases TIME_WAIT.
	rexmt, delack, twoMSL sim.Timer

	reass []reassSeg

	// dupAcks counts consecutive duplicate ACKs for fast retransmit
	// (BSD's tcprexmtthresh is 3).
	dupAcks int

	outWait sim.WaitQueue

	so      sock.Socket
	pcbEnt  pcb.PCB
	connect ConnectOp   // the active open's frame (Stack.Connect)
	out     outputOp    // tcp_output's frame; an overlapping caller borrows the loop's spare
	in      connInputOp // tcp_input's: segments reach a connection one at a time
}

// Socket returns the connection's socket.
func (c *Conn) Socket() *sock.Socket { return &c.so }

// State returns the connection state, for tests and diagnostics.
func (c *Conn) State() State { return c.state }

// Key returns the connection's demultiplexing 4-tuple.
func (c *Conn) Key() pcb.Key { return c.pcbEnt.Key }

// MSS returns the negotiated maximum segment size.
func (c *Conn) MSS() int { return c.mss }

// ChecksumEliminated reports whether both ends negotiated the TCP
// checksum off for this connection.
func (c *Conn) ChecksumEliminated() bool { return c.cksumOff }

// SRTT returns the smoothed round-trip estimate (0 before any sample).
func (c *Conn) SRTT() sim.Time { return c.srtt }

// RexmtShift returns the current retransmission backoff shift, for the
// watchdog's stuck-connection diagnostics.
func (c *Conn) RexmtShift() uint { return c.rexmtShift }

// Abort tears the connection down immediately and locally, as an
// application deadline would: timers disarmed, PCB removed, the socket
// poisoned with ErrAborted. Nothing is transmitted — this stack never
// sends RSTs — so the peer discovers the death only through its own
// retransmission timers, exactly as across a real host failure.
func (c *Conn) Abort() { c.abortWith(ErrAborted) }

// abortWith is the shared local-teardown path behind Abort and
// Stack.Crash. Unlike drop alone it also disarms the delayed-ACK state:
// delackFire does not check for StateClosed, so a pending delayed ACK
// left armed would transmit from a connection that no longer exists.
func (c *Conn) abortWith(err error) {
	if c.state == StateClosed {
		return
	}
	c.flagDelAck = false
	c.delack.Stop()
	// The reassembly queue is connection-internal — no parked operation
	// holds cursors into it the way socket buffers are held mid-copy —
	// so its segments free immediately. The socket buffers themselves
	// are reaped later (Stack.ReapCrashed, or the aborting client).
	for _, seg := range c.reass {
		c.K.Pool.Free(seg.m)
	}
	c.reass = nil
	c.drop(err)
}

// SetNoDelay disables the Nagle algorithm, as TCP_NODELAY does.
func (c *Conn) SetNoDelay(v bool) { c.noDelay = v }

func (c *Conn) remoteAddr() uint32 { return c.pcbEnt.Key.RemoteAddr }

// --- sock.Protocol ---

// Send implements sock.Protocol: new data is in the send buffer.
func (c *Conn) Send(p *sim.Proc) { c.output(p) }

// Rcvd implements sock.Protocol: the application drained receive buffer
// space, so a window update may be due.
func (c *Conn) Rcvd(p *sim.Proc) { c.output(p) }

// Close implements sock.Protocol: begin orderly release.
func (c *Conn) Close(p *sim.Proc) {
	switch c.state {
	case StateEstablished:
		c.state = StateFinWait1
	case StateCloseWait:
		c.state = StateLastAck
	case StateSynSent, StateSynRcvd:
		c.drop(nil)
		return
	default:
		return
	}
	c.output(p)
}

// drop tears the connection down, optionally with an error.
func (c *Conn) drop(err error) {
	c.state = StateClosed
	c.rexmt.Stop()
	c.S.Table.Remove(&c.pcbEnt)
	if err != nil {
		c.so.SetError(err)
	} else {
		c.so.SetEof()
	}
}

// --- RTT estimation and the retransmit timer ---

// rto returns the current retransmission timeout with backoff applied.
// The backoff shift saturates at maxRTO before it is applied: at
// maxRexmtShift 32 a raw `base << shift` wraps int64 negative (3s<<22
// already overflows), and the minRTO clamp would then turn a 64-second
// timeout into a 1-second one.
func (c *Conn) rto() sim.Time {
	var base sim.Time
	if c.srtt == 0 {
		base = 3 * sim.Second // before the first sample, per BSD
	} else {
		base = c.srtt + 4*c.rttvar
	}
	d := maxRTO
	if base <= maxRTO>>c.rexmtShift {
		d = base << c.rexmtShift
	}
	if d < minRTO {
		d = minRTO
	}
	return d
}

// rttUpdate folds a measured sample into srtt/rttvar (Jacobson 1988).
func (c *Conn) rttUpdate(sample sim.Time) {
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
		return
	}
	delta := sample - c.srtt
	c.srtt += delta / 8
	if delta < 0 {
		delta = -delta
	}
	c.rttvar += (delta - c.rttvar) / 4
}

// setRexmt (re)arms the retransmission timer.
func (c *Conn) setRexmt() {
	c.rexmt.Set(c.K.Env, c.K.Env.Now()+c.rto(), "tcp.rexmt")
}

// clearRexmt cancels any pending retransmission timer.
func (c *Conn) clearRexmt() { c.rexmt.Stop() }

// rexmtFire handles a retransmission timeout: back off, collapse the
// congestion window (Tahoe), rewind snd_nxt, and resend.
func (c *Conn) rexmtFire(p *sim.Proc) {
	if c.state == StateClosed || c.sndUna == c.sndMax {
		return
	}
	c.S.Stats.Retransmits++
	if c.rexmtShift >= maxRexmtShift {
		c.drop(ErrTimeout)
		return
	}
	c.rexmtShift++
	flight := c.sndMax.Diff(c.sndUna)
	half := min2(flight, c.sndWnd) / 2
	if half < 2*c.mss {
		half = 2 * c.mss
	}
	c.ssthresh = half
	c.cwnd = c.mss
	c.sndNxt = c.sndUna
	c.rtTiming = false // Karn: do not time retransmitted data
	c.flagAckNow = true
	c.setRexmt()
	c.output(p)
}

// scheduleDelack arms the 200 ms delayed-ACK timer.
func (c *Conn) scheduleDelack() {
	c.delack.Set(c.K.Env, c.K.Env.Now()+delackTimeout, "tcp.delack")
}

// TimerFired implements sim.TimerOwner for the connection's three timers.
// It runs in event context, which cannot block on FIFO space, so the
// work is queued for the stack's service process: the retransmission
// always, the delayed ACK unless one was sent meanwhile, the TIME_WAIT
// release unless the connection has left TIME_WAIT.
func (c *Conn) TimerFired(t *sim.Timer) {
	switch t {
	case &c.rexmt:
		c.S.dispatch(c, workRexmt)
	case &c.delack:
		if c.flagDelAck {
			c.S.dispatch(c, workDelack)
		}
	case &c.twoMSL:
		if c.state == StateTimeWait {
			c.S.dispatch(c, workRelease)
		}
	}
}

// delackFire sends the delayed ACK from the stack's service process.
func (c *Conn) delackFire(p *sim.Proc) {
	if c.flagDelAck {
		c.flagDelAck = false
		c.flagAckNow = true
		c.S.Stats.DelayedAcks++
		c.output(p)
	}
}

func min2(a, b int) int {
	if b < a {
		return b
	}
	return a
}
