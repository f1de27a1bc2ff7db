package tcp

import (
	"fmt"

	"repro/internal/checksum"
	"repro/internal/cost"
	"repro/internal/ip"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/pcb"
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/trace"
)

// Stats counts protocol events across a stack, for tests and reports.
type Stats struct {
	SegsIn          int64
	SegsOut         int64
	FastPathData    int64 // header-prediction hits, pure-data case
	FastPathAck     int64 // header-prediction hits, pure-ACK case
	SlowPath        int64
	ChecksumErrors  int64
	Retransmits     int64
	FastRetransmits int64
	DelayedAcks     int64
	DupSegs         int64
	OutOfOrderSegs  int64
	PCBCacheHits    int64
	PCBListSearched int64
}

// Stack is one host's TCP layer. It implements ip.Handler.
type Stack struct {
	K  *kern.Kernel
	IP *ip.Stack

	// Table demultiplexes incoming segments. Its organization (list
	// versus hash, cache on or off) is the §3 experimental variable.
	Table pcb.Table

	// PredictionEnabled controls both halves of header prediction: the
	// PCB cache and the tcp_input fast path. The paper's "no prediction"
	// kernel disables both.
	PredictionEnabled bool

	// Mode is the checksum configuration (§4). Both ends of a
	// connection must agree, which the paper arranges with the
	// Alternate Checksum Option at connection setup.
	Mode cost.ChecksumMode

	// SockBuf, when positive, overrides the send and receive socket
	// buffer high-water marks of every socket the stack creates — the
	// buffering knob behind the paper's back-to-back-segments
	// observation (sock.DefaultHiwat reproduces it; smaller values
	// serialize large transfers behind window updates).
	SockBuf int

	Stats Stats

	listeners map[uint16]*Listener // made by the first Listen: a client has none
	nextPort  uint16
	nextISS   Seq

	// deferred protocol work (timer expirations) executed by the
	// stack's service process, which can block on driver FIFOs. due starts
	// in dueInline: a client host rarely has two items queued at once.
	due       []work
	dueInline [1]work
	workQ     sim.WaitQueue

	// crashed holds the connections dropped by Crash until ReapCrashed
	// can safely return their buffered mbuf chains to the pool.
	crashed []*Conn

	// inFrame is the frame Input runs in, and proc the timer service
	// process with timers its root, held here so that a stack is one
	// allocation.
	inFrame inputOp
	proc    sim.Proc
	timers  workLoopFrame
}

// NewStack creates the TCP layer for a host, registers it with IP, and
// starts its timer service process.
func NewStack(k *kern.Kernel, ipStack *ip.Stack) *Stack { return new(Stack).Init(k, ipStack) }

// Init readies a zero Stack in place, as NewStack does, and returns it.
func (s *Stack) Init(k *kern.Kernel, ipStack *ip.Stack) *Stack {
	s.K, s.IP = k, ipStack
	s.PredictionEnabled = true
	s.nextPort = 1024
	s.nextISS = 1 // deterministic ISS: reproducibility over security
	s.due = s.dueInline[:0]
	s.workQ.Init("tcp.work")
	ipStack.Register(ip.ProtoTCP, s)
	s.inFrame.s = s
	s.timers.s = s
	k.Env.SpawnIn(&s.proc, k.Env.Now(), "", &s.timers)
	return s
}

// Reset returns the stack to its just-constructed state for testbed
// reuse: demultiplexing table emptied (retaining its hash buckets),
// listeners and connections discarded, the deterministic port and ISS
// counters rewound, statistics and deferred work cleared. The timer
// service process stays parked on its wait queue, exactly where a fresh
// stack's lands after its spawn event. Configuration knobs the lab
// applies after construction (Mode, SockBuf, PredictionEnabled,
// Table.UseHash) are reset to their constructed defaults; the caller
// re-applies the trial's values afterwards, as it would on a new stack.
func (s *Stack) Reset() {
	s.Table.Reset()
	clear(s.listeners)
	s.nextPort = 1024
	s.nextISS = 1
	s.Stats = Stats{}
	s.PredictionEnabled = true
	s.Mode = cost.ChecksumStandard
	s.SockBuf = 0
	clear(s.due)
	s.due = s.due[:0]
	s.ReapCrashed()
}

// Crash simulates a kernel crash mid-run: every connection's PCB and
// timer state is discarded locally — no FIN, no RST, the peer learns
// nothing until its own timers fire — every listener closes (parked
// Accepts fail with ErrCrashed), and deferred timer work dies with the
// kernel. Sockets are poisoned with ErrCrashed so blocked readers and
// writers wake and unwind. The dropped connections' buffered mbuf
// chains are NOT freed here: a reader or writer parked mid-copy still
// holds a cursor into them, so the sweep is deferred to ReapCrashed,
// which the lab runs at host restart (microseconds after the crash
// every such op has resumed and unwound; restarts come seconds later).
func (s *Stack) Crash() {
	for _, ent := range s.Table.Entries() {
		switch owner := ent.Owner.(type) {
		case *Conn:
			owner.abortWith(ErrCrashed)
			s.crashed = append(s.crashed, owner)
		case *Listener:
			owner.err = ErrCrashed
			owner.backlog = nil // the embryonic conns are dropped above
			s.Table.Remove(ent)
			owner.wq.WakeAll()
		default:
			panic("tcp: unknown PCB owner")
		}
	}
	clear(s.listeners)
	clear(s.due)
	s.due = s.due[:0]
}

// ReapCrashed frees the socket buffers of connections dropped by Crash
// (their reassembly queues were freed at abort), returning the mbufs to
// the pool so a crash trial stays leak-free under the Config.CheckLeaks
// gate. Callers must invoke it only once every operation blocked on a
// crashed socket has unwound — at host restart, or at stack Reset.
func (s *Stack) ReapCrashed() {
	for i, c := range s.crashed {
		so := &c.so
		so.Snd.Drop(so.Snd.Len())
		so.Rcv.Drop(so.Rcv.Len())
		s.crashed[i] = nil
	}
	s.crashed = s.crashed[:0]
}

// work is one expired timer's deferred processing: which connection,
// and which of its timers.
type work struct {
	c    *Conn
	kind workKind
}

type workKind uint8

const (
	workRexmt   workKind = iota // rexmtFire
	workDelack                  // delackFire
	workRelease                 // the 2MSL release out of TIME_WAIT
)

// dispatch queues protocol work for the service process. Timer events use
// it because event callbacks cannot block on FIFO space.
func (s *Stack) dispatch(c *Conn, kind workKind) {
	s.due = append(s.due, work{c, kind})
	s.workQ.Wake()
}

// workLoopFrame is the timer service process: each Step either parks on
// the work queue or pops and runs one deferred item. An item that needs
// to transmit pushes the connection's output frame as its last action;
// the loop resumes — and drains the next item — when that frame pops.
type workLoopFrame struct {
	s *Stack
}

// Name implements sim.Namer: the process is named when something asks.
func (f *workLoopFrame) Name() string { return f.s.K.Name() + ".tcptimer" }

func (f *workLoopFrame) Step(p *sim.Proc) {
	s := f.s
	if len(s.due) == 0 {
		s.workQ.Wait(p)
		return
	}
	w := s.due[0]
	copy(s.due, s.due[1:])
	s.due[len(s.due)-1] = work{}
	s.due = s.due[:len(s.due)-1]
	switch c := w.c; w.kind {
	case workRexmt:
		c.rexmtFire(p)
	case workDelack:
		c.delackFire(p)
	case workRelease:
		if c.state == StateTimeWait {
			c.drop(nil)
		}
	}
}

// allocPort returns a fresh ephemeral port.
func (s *Stack) allocPort() uint16 {
	s.nextPort++
	return s.nextPort
}

// newConn builds a closed connection — the one allocation a connection
// is — and wires what it holds by value back to it.
func (s *Stack) newConn() *Conn {
	c := &Conn{
		S:            s,
		K:            s.K,
		state:        StateClosed,
		mss:          defaultMSS,
		wantCksumOff: s.Mode == cost.ChecksumNone,
	}
	so := &c.so
	so.Init(s.K)
	so.Mode = s.Mode
	if s.SockBuf > 0 {
		so.Snd.Hiwat = s.SockBuf
		so.Rcv.Hiwat = s.SockBuf
	}
	so.Proto = c
	c.pcbEnt.Owner = c
	c.outWait.Init("tcp.outlock")
	c.rexmt.Bind(c)
	c.delack.Bind(c)
	c.twoMSL.Bind(c)
	c.connect.c = c
	c.out.c = c
	c.in.c = c
	return c
}

// mtuMSS derives the MSS from the attached interface.
func (s *Stack) mtuMSS() int {
	return s.IP.If.MTU() - ip.HeaderLen - HeaderLen
}

// Connect opens a connection to dst:port. It is a frame call: the
// returned op — the new connection's own — is pushed onto p and must be
// Connect's caller's last action before its Step returns; the op's
// So/C/Err fields are valid when the caller's Step next resumes.
func (s *Stack) Connect(p *sim.Proc, dst uint32, port uint16) *ConnectOp {
	f := &s.newConn().connect
	f.dst, f.port = dst, port
	p.Call(f)
	return f
}

// ConnectOp is the resumable state of one Connect call: send the SYN,
// then park on the socket's state queue until establishment completes
// (or fails). It lives in the connection it opens.
type ConnectOp struct {
	c    *Conn
	pc   int
	dst  uint32
	port uint16

	// Results, valid once the op returns.
	So  *sock.Socket
	C   *Conn
	Err error
}

func (f *ConnectOp) Step(p *sim.Proc) {
	c := f.c
	s := c.S
	switch f.pc {
	case 0:
		key := pcb.Key{
			LocalAddr:  s.IP.Addr,
			RemoteAddr: f.dst,
			LocalPort:  s.allocPort(),
			RemotePort: f.port,
		}
		c.pcbEnt.Key = key
		c.so.TraceID = connTraceID(key)
		s.Table.Insert(&c.pcbEnt)
		s.nextISS += 64000
		c.iss = s.nextISS
		c.sndUna, c.sndNxt, c.sndMax = c.iss, c.iss, c.iss
		c.mss = s.mtuMSS()
		c.cwnd = c.mss
		c.ssthresh = 65535
		c.state = StateSynSent
		f.pc = 1
		c.output(p)
	case 1:
		if !c.so.Connected && c.so.Err == nil {
			c.so.StateQ.Wait(p)
			return
		}
		if c.so.Err != nil {
			f.Err = c.so.Err
		} else {
			f.So, f.C = &c.so, c
		}
		p.Return()
	}
}

// Abort cancels an in-flight connect: the half-open connection is torn
// down and the op completes with ErrAborted. A no-op before the op
// starts (the connection is still closed) or once establishment has
// completed either way. It is how a client bounds connection setup with
// its own deadline — the SYN retransmission schedule alone takes minutes
// to give up.
func (f *ConnectOp) Abort() {
	if c := f.c; !c.so.Connected && c.so.Err == nil {
		c.abortWith(ErrAborted)
	}
}

// Listener accepts incoming connections on a port.
type Listener struct {
	s       *Stack
	port    uint16
	backlog []*Conn
	wq      sim.WaitQueue
	err     error // set when the listener dies (host crash); fails Accepts
	pcbEnt  pcb.PCB
	accept  AcceptOp
}

// Listen starts accepting connections on port.
func (s *Stack) Listen(port uint16) (*Listener, error) {
	if _, busy := s.listeners[port]; busy {
		return nil, fmt.Errorf("tcp: port %d already listening", port)
	}
	l := &Listener{s: s, port: port}
	l.wq.Init("tcp.accept")
	l.pcbEnt = pcb.PCB{Key: pcb.Key{LocalPort: port}, Owner: l}
	l.accept.l = l
	s.Table.Insert(&l.pcbEnt)
	if s.listeners == nil {
		s.listeners = make(map[uint16]*Listener)
	}
	s.listeners[port] = l
	return l, nil
}

// Accept waits until a connection is established and delivers its
// socket. It is a frame call: the returned op is pushed onto p and must
// be Accept's caller's last action before its Step returns; the op's
// So/C fields are valid when the caller's Step next resumes.
func (l *Listener) Accept(p *sim.Proc) *AcceptOp {
	p.Call(&l.accept)
	return &l.accept
}

// AcceptOp is the frame behind Accept, one per listener. It keeps no
// state across a park — each run re-reads the listener and writes every
// result as it returns — so processes accepting on one listener at once
// share it: each reads the results as it resumes, before anything else
// runs, and a later Accept's return overwrites them.
type AcceptOp struct {
	l *Listener

	// Results, valid once the op returns: So/C on success, Err when the
	// listener died (host crash) before a connection arrived.
	So  *sock.Socket
	C   *Conn
	Err error
}

func (f *AcceptOp) Step(p *sim.Proc) {
	l := f.l
	if l.err != nil {
		f.So, f.C, f.Err = nil, nil, l.err
		p.Return()
		return
	}
	if len(l.backlog) == 0 {
		l.wq.Wait(p)
		return
	}
	c := l.backlog[0]
	copy(l.backlog, l.backlog[1:])
	l.backlog[len(l.backlog)-1] = nil
	l.backlog = l.backlog[:len(l.backlog)-1]
	f.So, f.C, f.Err = &c.so, c, nil
	p.Return()
}

// Input implements ip.Handler: checksum verification, PCB demultiplexing
// (with the single-entry cache), header prediction, and the slow path.
// The mbuf chain m holds the TCP segment (header plus data). It is a
// frame call: the input frame is pushed onto p, so Input must be the
// caller's last action before its Step returns.
func (s *Stack) Input(p *sim.Proc, h ip.Header, m *mbuf.Mbuf) {
	f := &s.inFrame
	if f.busy {
		panic("tcp: segment input re-entered on one stack")
	}
	f.busy = true
	f.pc, f.h, f.m, f.tagged = 0, h, m, false
	p.Call(f)
}

// inputOp is the resumable state of one segment's input processing:
// parse, PCB lookup, checksum verification, and dispatch to the owning
// connection or listener. The stack holds one — input runs from the
// netisr, which processes one datagram at a time.
type inputOp struct {
	s      *Stack
	pc     int
	h      ip.Header
	m      *mbuf.Mbuf
	th     Header
	off    int
	segLen int
	pktID  trace.PacketID
	tagged bool
	busy   bool // between Input and the frame's return
	ent    *pcb.PCB
	ps     checksum.Partial
	csM    *mbuf.Mbuf // integrated-verification chain cursor
	ok     bool       // checksum verdict
}

func (f *inputOp) Step(p *sim.Proc) {
	s := f.s
	k := s.K
	for {
		switch f.pc {
		case 0: // parse, tag, PCB demultiplex (cache, then list or hash)
			s.Stats.SegsIn++
			f.segLen = mbuf.ChainLen(f.m)

			// Header scratch on the stack (20 bytes plus the two options
			// this stack uses); Parse copies what it keeps, so this must
			// not escape.
			var raw [maxHeaderLen]byte
			nn := mbuf.CopyBytesTo(f.m, 0, maxHeaderLen, raw[:])
			th, off, err := Parse(raw[:nn])
			if err != nil {
				k.Pool.Free(f.m)
				f.pc = 7
				continue
			}
			f.th, f.off = th, off

			// Tag the process with the segment's on-wire identity for the
			// rest of input processing: the PCB lookup, checksum
			// verification, and tcp_input charges all attribute to this
			// packet in the event stream. (A response transmitted from
			// inside input pushes its own identity on top.) Untraced runs
			// skip the push — the tag stack exists only for trace
			// attribution and pushing boxes the identity, one heap
			// allocation per segment.
			f.pktID = trace.PacketID{}
			if k.Trace.PacketsEnabled() {
				f.pktID = trace.PacketID{
					Src:     f.h.Src,
					Dst:     f.h.Dst,
					SrcPort: th.SrcPort,
					DstPort: th.DstPort,
					Seq:     uint32(th.Seq),
				}
				f.tagged = true
				p.PushTag(f.pktID.Tag())
				k.Trace.Event(trace.Event{
					Kind: trace.EvTCPInput, At: k.Now(), ID: f.pktID,
					Len: f.segLen, Aux: int64(th.Flags),
				})
			}

			probe := pcb.Key{
				LocalAddr:  f.h.Dst,
				RemoteAddr: f.h.Src,
				LocalPort:  th.DstPort,
				RemotePort: th.SrcPort,
			}
			s.Table.CacheDisabled = !s.PredictionEnabled
			ent, res := s.Table.Lookup(probe)
			f.ent = ent
			if k.Trace.PacketsEnabled() {
				searched := int64(res.Searched)
				if res.CacheHit {
					searched = -1
				}
				k.Trace.Event(trace.Event{
					Kind: trace.EvPCBLookup, At: k.Now(), ID: f.pktID, Aux: searched,
				})
			}
			f.pc = 1
			if res.CacheHit {
				s.Stats.PCBCacheHits++
				if !k.Use(p, trace.LayerTCPSegmentRx, k.Cost.PCBCacheHit) {
					return
				}
			} else {
				s.Stats.PCBListSearched += int64(res.Searched)
				var searchCost sim.Time
				if s.Table.UseHash {
					searchCost = k.Cost.PCBHashLookup
				} else {
					searchCost = k.Cost.PCBLookupFixed +
						sim.Time(res.Searched)*k.Cost.PCBLookupPerEntry
				}
				if !k.Use(p, trace.LayerTCPSegmentRx, searchCost) {
					return
				}
			}

		case 1: // lookup result; decide whether the checksum applies
			if f.ent == nil {
				// No connection: drop (a full stack would send RST).
				k.Pool.Free(f.m)
				f.pc = 7
				continue
			}
			// Checksum verification. BSD verifies before the PCB lookup;
			// with the Alternate Checksum Option the mode is per
			// connection, so the lookup has to come first. A segment whose
			// corrupted ports demux to the wrong (or no) connection is
			// still dropped — here, by that connection's own checksum, or
			// by the sequence checks. Whether the checksum applies: never
			// for SYNs (negotiation is not complete), and not when both
			// ends negotiated it off.
			verify := true
			if conn, isConn := f.ent.Owner.(*Conn); isConn &&
				conn.cksumOff && f.th.Flags&FlagSYN == 0 {
				verify = false
			}
			if !verify {
				f.ok = true
				f.pc = 5
				continue
			}
			if s.Mode == cost.ChecksumIntegrated {
				// Verify using the partial sums the ATM driver stashed
				// during its device-to-kernel copy.
				f.ps = pseudoPartial(f.h, f.segLen)
				f.csM = f.m
				f.pc = 2
				continue
			}
			nm := mbuf.ChainCount(f.m)
			f.pc = 4
			if !k.Use(p, trace.LayerTCPCksumRx,
				k.Cost.TCPKernelChecksum.Cost(f.segLen)+sim.Time(nm)*k.Cost.TCPCksumPerMbuf) {
				return
			}

		case 2: // integrated verification: per-mbuf charge for the next link
			m := f.csM
			if m == nil {
				f.ok = f.ps.Sum16() == 0xffff
				f.pc = 5
				continue
			}
			var d sim.Time
			if m.CsumValid {
				d = k.Cost.ChecksumCombine
			} else {
				d = sim.Time(k.Cost.TCPKernelChecksum.PerByte * float64(m.Len()))
			}
			f.pc = 3
			if !k.Use(p, trace.LayerTCPCksumRx, d) {
				return
			}

		case 3: // integrated verification: fold the charged link, advance
			m := f.csM
			if m.CsumValid {
				f.ps.Combine(m.Csum)
			} else {
				f.ps.Add(m.Bytes())
			}
			f.csM = m.Next()
			f.pc = 2

		case 4: // standard verification: one charged pass over real bytes
			ps := pseudoPartial(f.h, f.segLen)
			for c := f.m; c != nil; c = c.Next() {
				ps.Add(c.Bytes())
			}
			f.ok = ps.Sum16() == 0xffff
			f.pc = 5

		case 5: // checksum verdict, strip header, dispatch to the owner
			if !f.ok {
				s.Stats.ChecksumErrors++
				k.Pool.Free(f.m)
				f.pc = 7
				continue
			}
			// Strip the TCP header; the remaining chain is the data.
			f.m = k.Pool.Drop(f.m, f.off)
			switch owner := f.ent.Owner.(type) {
			case *Listener:
				k.Pool.Free(f.m)
				f.m = nil
				f.pc = 6
				if !k.Use(p, trace.LayerTCPSegmentRx, k.Cost.TCPInputSlow) {
					return
				}
			case *Conn:
				f.pc = 7
				owner.input(p, f.th, f.m)
				f.m = nil
				return
			default:
				panic("tcp: unknown PCB owner")
			}

		case 6: // listener input: a SYN creates an embryonic connection
			s.Stats.SlowPath++
			l := f.ent.Owner.(*Listener)
			th := f.th
			if th.Flags&FlagSYN == 0 || th.Flags&FlagACK != 0 {
				f.pc = 7
				continue
			}
			c := s.newConn()
			key := pcb.Key{
				LocalAddr:  s.IP.Addr,
				RemoteAddr: f.h.Src,
				LocalPort:  l.port,
				RemotePort: th.SrcPort,
			}
			c.pcbEnt.Key = key
			c.so.TraceID = connTraceID(key)
			s.Table.Insert(&c.pcbEnt)
			c.listener = l
			s.nextISS += 64000
			c.iss = s.nextISS
			c.sndUna, c.sndNxt, c.sndMax = c.iss, c.iss, c.iss
			c.irs = th.Seq
			c.rcvNxt = th.Seq.Add(1)
			c.mss = s.mtuMSS()
			if th.MSS != 0 && int(th.MSS) < c.mss {
				c.mss = int(th.MSS)
			}
			if th.AltCksum == AltCksumNone && c.wantCksumOff {
				c.cksumOff = true
			}
			c.cwnd = c.mss
			c.ssthresh = 65535
			c.sndWnd = int(th.Win)
			c.state = StateSynRcvd
			c.flagAckNow = true
			f.pc = 7
			c.output(p)
			return

		case 7: // finish: restore the tag, recycle the frame
			if f.tagged {
				p.PopTag()
			}
			f.m, f.ent, f.csM = nil, nil, nil
			f.busy = false
			p.Return()
			return
		}
	}
}

// connTraceID is the connection-scoped trace identity (4-tuple, Seq
// zero) socket-layer events are stamped with.
func connTraceID(key pcb.Key) trace.PacketID {
	return trace.PacketID{
		Src:     key.LocalAddr,
		Dst:     key.RemoteAddr,
		SrcPort: key.LocalPort,
		DstPort: key.RemotePort,
	}
}
