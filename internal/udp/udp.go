// Package udp implements a UDP layer on the simulated stack. The paper
// leans on UDP context twice: §4.2 opens from the observation that "it is
// already common practice to eliminate the UDP checksum for local area
// NFS traffic" (UDP's checksum has been optional since RFC 768 — a zero
// checksum field means "not computed"), and the Digital OSF comparison in
// §4.1.1 concerns a combined copy-and-checksum on the UDP receive path.
//
// Having UDP in the testbed also answers the question the paper's
// introduction poses — "can we provide evidence that TCP is a viable
// option for a transport layer for RPC?" — by providing the datagram
// baseline an RPC system would otherwise use; the extension experiment in
// internal/core compares echo latency over both transports.
//
// The receive path is 4.3BSD's: udp_input appends the datagram's mbuf
// chain to the bound endpoint's queue (sbappendaddr) and recvfrom copies
// the payload out, at the step where the model charges that copy. The
// copy lands in a checkout from the receiving host's event-loop arena
// (sim.Arena), so a receiver owns the bytes of each datagram it is handed
// until it gives them back with Endpoint.Release.
package udp

import (
	"fmt"

	"repro/internal/checksum"
	"repro/internal/ip"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/trace"
)

// HeaderLen is the UDP header length.
const HeaderLen = 8

// ProtoUDP is the IPv4 protocol number for UDP.
const ProtoUDP = 17

// Header is a parsed UDP header.
type Header struct {
	SrcPort, DstPort uint16
	Length           int // header + payload
	Cksum            uint16
}

// Marshal encodes the header with a zero checksum field.
func (h *Header) Marshal(b []byte) {
	b[0] = byte(h.SrcPort >> 8)
	b[1] = byte(h.SrcPort)
	b[2] = byte(h.DstPort >> 8)
	b[3] = byte(h.DstPort)
	b[4] = byte(h.Length >> 8)
	b[5] = byte(h.Length)
	b[6], b[7] = 0, 0
}

// ParseHeader decodes a header from b.
func ParseHeader(b []byte) (Header, error) {
	var h Header
	if len(b) < HeaderLen {
		return h, fmt.Errorf("udp: short header (%d bytes)", len(b))
	}
	h.SrcPort = uint16(b[0])<<8 | uint16(b[1])
	h.DstPort = uint16(b[2])<<8 | uint16(b[3])
	h.Length = int(b[4])<<8 | int(b[5])
	h.Cksum = uint16(b[6])<<8 | uint16(b[7])
	return h, nil
}

// Datagram is one received datagram. Data is a checkout from the
// receiving host's event-loop arena, copied out of the queued chain by
// RecvFrom and referenced by nothing else in the stack: the receiver owns
// it until it hands it back with Endpoint.Release, and must not read it
// after that. A receiver that keeps the bytes copies them first.
type Datagram struct {
	Src     uint32
	SrcPort uint16
	Data    []byte
}

// queued is one datagram on an endpoint's receive queue: its chain as
// udp_input received it, UDP header first, the payload length, and its
// source.
type queued struct {
	m       *mbuf.Mbuf
	n       int
	src     uint32
	srcPort uint16
}

// Endpoint is a bound UDP port: a receive queue plus send capability.
type Endpoint struct {
	s    *Stack
	port uint16
	q    []queued
	wq   sim.WaitQueue

	// first is where q starts: a request/response endpoint never holds
	// more, so only a port that queues deeper — a busy server — grows q,
	// once, to its high-water mark.
	first [2]queued

	// Free frames for the endpoint's send and receive paths. Receives are
	// one at a time, so one frame is cached. Sends overlap whenever two
	// processes share the port — rudp's receive pump acks while a sender
	// or its retransmission timer transmits — so the send frames form a
	// free list, linked through next, that grows to the most sends ever in
	// flight at once and then allocates nothing.
	sendOp *SendToOp
	recvOp *RecvFromOp
}

// Stack is one host's UDP layer. It implements ip.Handler.
type Stack struct {
	K  *kern.Kernel
	IP *ip.Stack

	// ChecksumOff sends datagrams with a zero (absent) checksum, the
	// local-area NFS configuration. Reception always honours the wire:
	// a zero checksum field is accepted unverified, a nonzero one is
	// verified (RFC 768 semantics).
	ChecksumOff bool
	// nextPort shares ChecksumOff's word: a Stack is 80 bytes of every
	// host's block.
	nextPort uint16

	ports map[uint16]*Endpoint // made by the first Bind: a TCP-only host has none

	// inOp caches the ip.Handler input frame (one datagram is processed
	// at a time per host).
	inOp *inputOp

	// Stats. Every datagram IP hands up ends in exactly one of
	// DatagramsIn (queued on a bound port), ChecksumErrors, NoPortDrops
	// and BadHeaders (shorter than a header, or a Length field that
	// disagrees with the datagram).
	DatagramsIn    int64
	DatagramsOut   int64
	ChecksumErrors int64
	NoPortDrops    int64
	BadHeaders     int64
}

// NewStack creates the UDP layer and registers it with IP.
func NewStack(k *kern.Kernel, ipStack *ip.Stack) *Stack { return new(Stack).Init(k, ipStack) }

// Init readies a zero Stack in place, as NewStack does, and returns it.
func (s *Stack) Init(k *kern.Kernel, ipStack *ip.Stack) *Stack {
	s.K, s.IP, s.nextPort = k, ipStack, 2048
	ipStack.Register(ProtoUDP, s)
	return s
}

// Reset returns the stack to its just-constructed state for testbed
// reuse: bound ports released with their queued datagrams freed, the
// ephemeral port counter rewound, the checksum policy back to default,
// statistics cleared. The IP registration survives — it is part of the
// topology.
func (s *Stack) Reset() {
	for _, e := range s.ports {
		e.drop()
	}
	clear(s.ports)
	s.nextPort = 2048
	s.ChecksumOff = false
	s.DatagramsIn, s.DatagramsOut, s.ChecksumErrors, s.NoPortDrops, s.BadHeaders = 0, 0, 0, 0, 0
}

// Bind claims a port (0 means an ephemeral one) and returns its endpoint.
func (s *Stack) Bind(port uint16) (*Endpoint, error) {
	if port == 0 {
		s.nextPort++
		port = s.nextPort
	}
	if _, busy := s.ports[port]; busy {
		return nil, fmt.Errorf("udp: port %d in use", port)
	}
	e := &Endpoint{s: s, port: port}
	e.q = e.first[:0]
	e.wq.Init("udp")
	if s.ports == nil {
		s.ports = make(map[uint16]*Endpoint)
	}
	s.ports[port] = e
	return e, nil
}

// Port returns the endpoint's bound port.
func (e *Endpoint) Port() uint16 { return e.port }

// Close releases the endpoint's port binding and frees queued datagrams,
// so the port can be bound again (a crashed server's restart re-Listens
// on the same port). Parked receivers are not woken — a closed endpoint's
// service process simply never runs again — and later arrivals for the
// port drop like any unbound port's. A datagram already handed to a
// receiver is the receiver's to Release.
func (e *Endpoint) Close() {
	delete(e.s.ports, e.port)
	e.drop()
}

// drop frees the queued datagrams' chains.
func (e *Endpoint) drop() {
	for i := range e.q {
		e.s.K.Pool.Free(e.q[i].m)
		e.q[i] = queued{}
	}
	e.q = e.q[:0]
}

// Release hands a received datagram's storage back to the arena it was
// checked out of and clears d.Data, so a second Release is a no-op.
func (e *Endpoint) Release(d *Datagram) {
	if d.Data != nil {
		e.s.K.Env.Arena().Return(d.Data)
		d.Data = nil
	}
}

// SendTo transmits one datagram as a frame call (tail position). The
// cost structure mirrors the TCP output path minus connection state:
// syscall + copyin under the User row, checksum under TCP.checksum (the
// paper's tables use that row for transport checksums generally), and a
// light protocol-processing charge.
func (e *Endpoint) SendTo(p *sim.Proc, dst uint32, dstPort uint16, data []byte) {
	f := e.sendOp
	if f != nil {
		e.sendOp, f.next = f.next, nil
	} else {
		f = &SendToOp{e: e}
	}
	f.pc = 0
	f.dst, f.dstPort = dst, dstPort
	f.data, f.rest = data, data
	f.useClusters = len(data) > mbuf.ClusterThreshold
	p.Call(f)
}

// SendToOp is the frame behind Endpoint.SendTo: the write() entry, the
// copyin loop (same mbuf sizing policy as sosend), the header build, the
// optional checksum, and the hand-off to IP.
type SendToOp struct {
	e  *Endpoint
	pc int

	dst         uint32
	dstPort     uint16
	data, rest  []byte
	useClusters bool

	chain, tail *mbuf.Mbuf
	curM, hm    *mbuf.Mbuf
	curN        int
	length      int // header + payload

	next *SendToOp // on the endpoint's free list
}

// allocCost returns the charge for the next payload mbuf.
func (f *SendToOp) allocCost() sim.Time {
	if f.useClusters {
		return f.e.s.K.Cost.ClusterAlloc
	}
	return f.e.s.K.Cost.MbufAlloc
}

// Step drives the datagram-send state machine.
func (f *SendToOp) Step(p *sim.Proc) {
	e := f.e
	k := e.s.K
	for {
		switch f.pc {
		case 0: // write() entry
			f.pc = 1
			if !k.Use(p, trace.LayerUserTx, k.Cost.WriteSyscall) {
				return
			}
		case 1: // first payload mbuf (even a zero-length datagram gets one)
			f.pc = 2
			if !k.Use(p, trace.LayerUserTx, f.allocCost()) {
				return
			}
		case 2: // allocate, fill, charge the copyin
			var m *mbuf.Mbuf
			if f.useClusters {
				m = k.Pool.AllocCluster()
			} else {
				m = k.Pool.Alloc()
			}
			f.curM = m
			f.curN = m.Append(f.rest)
			f.rest = f.rest[f.curN:]
			f.pc = 3
			if !k.Use(p, trace.LayerUserTx,
				k.Cost.CopyinFixed+sim.Time(k.Cost.CopyinPerByte*float64(f.curN))) {
				return
			}
		case 3: // link the filled mbuf; loop or move to the header
			if f.chain == nil {
				f.chain = f.curM
			} else {
				f.tail.SetNext(f.curM)
			}
			f.tail = f.curM
			if len(f.rest) > 0 {
				f.pc = 2
				if !k.Use(p, trace.LayerUserTx, f.allocCost()) {
					return
				}
			} else {
				f.pc = 4
				if !k.Use(p, trace.LayerTCPSegmentTx, k.Cost.MbufAlloc) {
					return
				}
			}
		case 4: // header mbuf + protocol-processing charge
			f.hm = k.Pool.Alloc()
			f.length = HeaderLen + len(f.data)
			h := Header{SrcPort: e.port, DstPort: f.dstPort, Length: f.length}
			var hdr [HeaderLen]byte
			h.Marshal(hdr[:])
			f.hm.Append(hdr[:])
			f.hm.SetNext(f.chain)
			f.pc = 5
			if !k.Use(p, trace.LayerTCPSegmentTx,
				k.Cost.UsrreqDispatch+k.Cost.TCPOutputSegment.Fixed/2) {
				return
			}
		case 5: // optional checksum charge
			if e.s.ChecksumOff {
				f.pc = 7
				continue
			}
			nm := mbuf.ChainCount(f.hm)
			f.pc = 6
			if !k.Use(p, trace.LayerTCPCksumTx,
				k.Cost.TCPKernelChecksum.Cost(f.length)+sim.Time(nm)*k.Cost.TCPCksumPerMbuf) {
				return
			}
		case 6: // checksum over real bytes
			ps := udpPseudo(e.s.IP.Addr, f.dst, f.length)
			for m := f.hm; m != nil; m = m.Next() {
				ps.Add(m.Bytes())
			}
			ck := ps.Checksum()
			if ck == 0 {
				ck = 0xffff // RFC 768: transmitted as all ones
			}
			b := f.hm.Bytes()
			b[6] = byte(ck >> 8)
			b[7] = byte(ck)
			f.pc = 7
		case 7: // hand off to IP (tail call)
			e.s.DatagramsOut++
			f.pc = 8
			e.s.IP.Output(p, f.dst, ProtoUDP, f.hm)
			return
		case 8: // done
			f.data, f.rest = nil, nil
			f.chain, f.tail, f.curM, f.hm = nil, nil, nil, nil
			f.next, e.sendOp = e.sendOp, f
			p.Return()
			return
		}
	}
}

// RecvFrom blocks until a datagram arrives. The call must be in tail
// position; once the caller re-enters, the returned op's D field holds
// the datagram, whose Data the caller must hand back with Release.
func (e *Endpoint) RecvFrom(p *sim.Proc) *RecvFromOp {
	f := e.recvOp
	if f != nil {
		e.recvOp = nil
	} else {
		f = &RecvFromOp{e: e}
	}
	f.pc = 0
	f.D = Datagram{}
	p.Call(f)
	return f
}

// RecvFromOp is the frame behind Endpoint.RecvFrom.
type RecvFromOp struct {
	e  *Endpoint
	pc int

	// D is the received datagram, valid once the frame returns.
	D Datagram
}

// Step drives the datagram-receive state machine.
func (f *RecvFromOp) Step(p *sim.Proc) {
	e := f.e
	k := e.s.K
	for {
		switch f.pc {
		case 0: // wait for a datagram
			if len(e.q) == 0 {
				k.SleepOn(p, &e.wq)
				return
			}
			f.pc = 1
			if !k.Use(p, trace.LayerUserRx, k.Cost.ReadSyscall) {
				return
			}
		case 1: // dequeue, copy out into a checkout, charge the copyout
			dg := e.q[0]
			n := copy(e.q, e.q[1:])
			e.q[n] = queued{}
			e.q = e.q[:n]
			data := k.Env.Arena().Checkout(dg.n)[:dg.n]
			mbuf.CopyBytesTo(dg.m, HeaderLen, dg.n, data)
			k.Pool.Free(dg.m)
			f.D = Datagram{Src: dg.src, SrcPort: dg.srcPort, Data: data}
			f.pc = 2
			if !k.Use(p, trace.LayerUserRx,
				k.Cost.CopyoutFixed+sim.Time(k.Cost.CopyoutPerByte*float64(len(f.D.Data)))) {
				return
			}
		case 2: // done
			if e.recvOp == nil {
				e.recvOp = f
			}
			p.Return()
			return
		}
	}
}

// Pending returns the number of queued datagrams.
func (e *Endpoint) Pending() int { return len(e.q) }

// Input implements ip.Handler as a frame call.
func (s *Stack) Input(p *sim.Proc, h ip.Header, m *mbuf.Mbuf) {
	f := s.inOp
	if f != nil {
		s.inOp = nil
	} else {
		f = &inputOp{s: s}
	}
	f.pc = 0
	f.h, f.m = h, m
	p.Call(f)
}

// inputOp is the frame behind Stack.Input: parse checks (free of charge,
// as in the original), the protocol-processing charge, the optional
// checksum verification, and delivery to the bound port. A delivered
// chain moves to the port's queue; every other exit frees it.
type inputOp struct {
	s  *Stack
	pc int

	h  ip.Header
	m  *mbuf.Mbuf
	uh Header
}

// Step drives the datagram-input state machine.
func (f *inputOp) Step(p *sim.Proc) {
	s := f.s
	k := s.K
	for {
		switch f.pc {
		case 0: // parse and sanity-check, then charge protocol processing
			var raw [HeaderLen]byte
			if mbuf.CopyBytesTo(f.m, 0, HeaderLen, raw[:]) != HeaderLen {
				s.BadHeaders++
				f.pc = 4
				continue
			}
			uh, _ := ParseHeader(raw[:]) // raw is a whole header: it cannot fail
			if uh.Length != mbuf.ChainLen(f.m) {
				s.BadHeaders++
				f.pc = 4
				continue
			}
			f.uh = uh
			f.pc = 1
			if !k.Use(p, trace.LayerTCPSegmentRx, k.Cost.TCPInputFast) {
				return
			}
		case 1: // a nonzero checksum field must verify (RFC 768)
			if f.uh.Cksum == 0 {
				f.pc = 3
				continue
			}
			nm := mbuf.ChainCount(f.m)
			f.pc = 2
			if !k.Use(p, trace.LayerTCPCksumRx,
				k.Cost.TCPKernelChecksum.Cost(f.uh.Length)+sim.Time(nm)*k.Cost.TCPCksumPerMbuf) {
				return
			}
		case 2: // verify the sum
			ps := udpPseudo(f.h.Src, f.h.Dst, f.uh.Length)
			for c := f.m; c != nil; c = c.Next() {
				ps.Add(c.Bytes())
			}
			if ps.Sum16() != 0xffff {
				s.ChecksumErrors++
				f.pc = 4
				continue
			}
			f.pc = 3
		case 3: // deliver to the bound port
			ep, ok := s.ports[f.uh.DstPort]
			if !ok {
				s.NoPortDrops++
				f.pc = 4
				continue
			}
			s.DatagramsIn++
			ep.q = append(ep.q, queued{m: f.m, n: f.uh.Length - HeaderLen, src: f.h.Src, srcPort: f.uh.SrcPort})
			f.m = nil
			ep.wq.WakeAll()
			f.pc = 4
		case 4: // free an undelivered chain and pop
			k.Pool.Free(f.m)
			f.m = nil
			if s.inOp == nil {
				s.inOp = f
			}
			p.Return()
			return
		}
	}
}

// udpPseudo primes a partial sum with the UDP pseudo-header.
func udpPseudo(src, dst uint32, length int) checksum.Partial {
	var p checksum.Partial
	p.AddWord(uint16(src >> 16))
	p.AddWord(uint16(src))
	p.AddWord(uint16(dst >> 16))
	p.AddWord(uint16(dst))
	p.AddWord(ProtoUDP)
	p.AddWord(uint16(length))
	return p
}
