package tcp

import (
	"repro/internal/checksum"
	"repro/internal/cost"
	"repro/internal/ip"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/trace"
)

// output runs tcp_output until it decides there is nothing more to send.
// It is a frame call: the resumable outputOp is pushed onto p, so output
// must be the caller's last action before its Step returns.
//
// tcp_output is serialized per connection, the analogue of BSD running it
// at splnet: CPU charges inside the segment build yield to the event
// loop, so without the lock a user send (sosend's PRU_SEND) and
// input-side processing could both be inside tcp_output at once, each
// capturing the same snd_nxt and together consuming phantom sequence
// space no ACK could ever cover. A caller that finds output busy sleeps
// until the lock is free and then re-evaluates the send decision against
// current state, as a uniprocessor kernel blocking on the spl level
// would.
func (c *Conn) output(p *sim.Proc) {
	f := &c.out
	if f.busy {
		spare := sim.Local[spareOutput](c.K.Env)
		if f, spare.f = spare.f, nil; f == nil {
			f = new(outputOp)
		}
		f.c = c
	}
	f.busy = true
	f.pc = 0
	p.Call(f)
}

// outputOp is the resumable state of one output invocation: the splnet
// lock, the outputOnce send-decision loop, and the segment build
// (including mcopy and the checksum) flattened into one frame. Each
// connection holds one — per-connection outputs are serialized by the
// outBusy lock, so steady state allocates nothing; an overlapping caller
// parked on the lock borrows the loop's spare.
type outputOp struct {
	c    *Conn
	pc   int
	busy bool // between output and the frame's return

	// One pass of the send decision, captured across parks.
	flags              uint8
	off, length, sbLen int
	win                int
	sendalot           bool
	th                 Header
	tagged             bool
	data, hm           *mbuf.Mbuf
	hdrLen             int
	ps                 checksum.Partial
	csM                *mbuf.Mbuf // integrated-checksum chain cursor
}

func (f *outputOp) Step(p *sim.Proc) {
	c := f.c
	k := c.K
	for {
		switch f.pc {
		case 0: // acquire the splnet lock, re-checking on every wake
			if c.outBusy {
				c.outWait.Wait(p)
				return
			}
			c.outBusy = true
			f.pc = 1

		case 1: // one pass of the BSD tcp_output send decision
			idle := c.sndMax == c.sndUna
			off := c.sndNxt.Diff(c.sndUna)
			if off < 0 {
				off = 0
			}
			win := min2(c.sndWnd, c.cwnd)
			flags := c.outputFlags()

			sbLen := c.so.Snd.Len()
			length := min2(sbLen-off, win-off)
			if length < 0 {
				length = 0
			}
			sendalot := false
			if length > c.mss {
				length = c.mss
				sendalot = true
			}
			// The FIN consumes sequence space after all data.
			if flags&FlagFIN != 0 && off+length < sbLen {
				flags &^= FlagFIN
			}

			send := false
			switch {
			case length == c.mss && length > 0:
				send = true
			case length > 0 && (idle || c.noDelay) && off+length == sbLen:
				// Nagle: a sub-MSS segment goes out only when nothing is
				// outstanding (or TCP_NODELAY) and it carries all queued
				// data.
				send = true
			case length > 0 && off+length == sbLen && flags&FlagFIN != 0:
				send = true
			}
			if flags&FlagSYN != 0 && c.sndNxt == c.iss {
				send = true
			}
			if flags&FlagFIN != 0 && (!c.finSent || c.sndNxt == c.sndUna) {
				send = true
			}
			if c.flagAckNow {
				send = true
			}
			// Window update: advertise when the window has opened by two
			// segments or half the buffer (BSD's receiver silly-window
			// rule). The opening must be strictly positive: with a tiny
			// socket buffer Hiwat/2 is zero, and a zero "opening" must not
			// qualify or every pass would send an update and the two ends
			// would chatter forever.
			rcvSpace := c.so.Rcv.Space()
			if c.state >= StateEstablished && rcvSpace > 0 {
				adv := c.rcvNxt.Add(rcvSpace).Diff(c.rcvAdv)
				if adv > 0 && (adv >= 2*c.mss || adv >= c.so.Rcv.Hiwat/2) {
					send = true
				}
			}
			if !send {
				f.pc = 11
				continue
			}
			f.flags, f.off, f.length = flags, off, length
			f.sbLen, f.win, f.sendalot = sbLen, win, sendalot

			// Segment build. The header is assembled before any charge so
			// the decision's snapshot is what goes on the wire.
			key := c.pcbEnt.Key
			th := Header{
				SrcPort: key.LocalPort,
				DstPort: key.RemotePort,
				Seq:     c.sndNxt,
				Ack:     c.rcvNxt,
				Flags:   flags,
				Win:     clampWin(c.so.Rcv.Space()),
			}
			if flags&FlagSYN != 0 {
				th.Seq = c.iss
				th.MSS = uint16(c.S.mtuMSS())
				if c.wantCksumOff {
					th.AltCksum = AltCksumNone
				}
			}
			if flags&FlagACK == 0 {
				th.Ack = 0
			}
			if length > 0 && off+length == c.so.Snd.Len() {
				th.Flags |= FlagPSH
			}
			f.th = th

			// The send sequence advances with the decision. 4.4BSD advances
			// it before ip_output, with all of tcp_output at splnet; here
			// input runs at every charge below, so the advance cannot wait
			// for any of them. Input that runs meanwhile — an ACK of the SYN
			// taken in while a retransmitted SYN-ACK is still being built or
			// is in the driver — finds snd_nxt and snd_max already past the
			// segment and cannot have it counted twice.
			seqLen := length
			if flags&FlagSYN != 0 {
				seqLen++
			}
			if flags&FlagFIN != 0 {
				seqLen++
				c.finSent = true
			}
			c.sndNxt = c.sndNxt.Add(seqLen)
			if c.sndNxt.Gt(c.sndMax) {
				c.sndMax = c.sndNxt
				// Time this transmission for RTT if nothing is being timed.
				if !c.rtTiming && seqLen > 0 {
					c.rtTiming = true
					c.rtSeq = th.Seq
					c.rtStart = k.Now()
				}
			}

			// Tag the process with this segment's on-wire identity for the
			// rest of the transmit path: every CPU charge from here down —
			// mcopy, output processing, checksum, ip_output, the driver —
			// attributes to this packet in the event stream. The tag nests,
			// so an ACK sent from inside tcp_input restores the inbound
			// segment's identity on pop. Tags exist only for that
			// attribution, so an untraced run skips the push — pushing
			// boxes the identity into an interface, one heap allocation per
			// segment on the hot path.
			f.tagged = k.Trace.PacketsEnabled()
			if f.tagged {
				pktID := trace.PacketID{
					Src:     key.LocalAddr,
					Dst:     key.RemoteAddr,
					SrcPort: key.LocalPort,
					DstPort: key.RemotePort,
					Seq:     uint32(th.Seq),
				}
				p.PushTag(pktID.Tag())
				k.Trace.Event(trace.Event{
					Kind: trace.EvTCPOutput, At: k.Now(), ID: pktID,
					Len: length, Aux: int64(th.Flags),
				})
			}

			// mcopy: the data sent is a copy of the socket buffer chain,
			// kept there for retransmission (§2.2.3: "the copy in mcopy
			// only occurs on sends, and is made from the mbuf chain for
			// retransmissions").
			f.pc = 2
			if length > 0 {
				var cs mbuf.CopyStats
				f.data, cs = k.Pool.Copy(c.so.Snd.Chain(), off, length)
				d := sim.Time(cs.MbufsAllocated)*(k.Cost.MbufAlloc+k.Cost.MbufCopyFix) +
					sim.Time(cs.ClustersRef)*k.Cost.ClusterRef +
					sim.Time(k.Cost.UserBcopy.PerByte*float64(cs.BytesCopied))
				if !k.Use(p, trace.LayerTCPMcopy, d) {
					return
				}
			}

		case 2: // remaining TCP output processing: the paper's "segment" row
			f.pc = 3
			if !k.Use(p, trace.LayerTCPSegmentTx, k.Cost.TCPOutputSegment.Cost(f.length)) {
				return
			}

		case 3: // header mbuf allocation charge
			f.pc = 4
			if !k.Use(p, trace.LayerTCPSegmentTx, k.Cost.MbufAlloc) {
				return
			}

		case 4: // build the header mbuf, then dispatch on checksum mode
			hm := k.Pool.Alloc()
			f.hm = hm
			f.hdrLen = f.th.Len()
			// Marshal scratch lives on the stack; Append copies it in.
			var hdr [maxHeaderLen]byte
			f.th.Marshal(hdr[:f.hdrLen])
			hm.Append(hdr[:f.hdrLen])
			hm.SetNext(f.data)

			// Checksum elimination applies only once negotiated and never
			// to SYN segments; a stack configured for elimination whose
			// peer did not agree falls back to the standard checksum, so
			// mismatched configurations interoperate instead of
			// blackholing.
			if c.cksumOff && f.flags&FlagSYN == 0 {
				f.pc = 9
				continue
			}
			if c.S.Mode == cost.ChecksumIntegrated {
				f.pc = 5
				if !k.Use(p, trace.LayerTCPCksumTx, k.Cost.IntegratedTxFixed) {
					return
				}
				continue
			}
			segLen := f.hdrLen + f.length
			nm := mbuf.ChainCount(hm)
			f.pc = 8
			if !k.Use(p, trace.LayerTCPCksumTx,
				k.Cost.TCPKernelChecksum.Cost(segLen)+sim.Time(nm)*k.Cost.TCPCksumPerMbuf) {
				return
			}

		case 5: // integrated mode: pseudo-header plus freshly summed header
			// The data mbufs carry partial sums computed during copyin;
			// fold them with a freshly summed header (§4.1.1). Invalidated
			// stashes (segment boundaries that split an mbuf) fall back to
			// summing that mbuf's bytes.
			key := c.pcbEnt.Key
			f.ps = checksum.TCPPseudo(key.LocalAddr, key.RemoteAddr, f.hdrLen+f.length)
			f.ps.Add(f.hm.Bytes())
			f.csM = f.hm.Next()
			f.pc = 6
			if !k.Use(p, trace.LayerTCPCksumTx, k.Cost.TCPKernelChecksum.Cost(f.hdrLen)) {
				return
			}

		case 6: // integrated mode: per-mbuf charge for the next chain link
			m := f.csM
			if m == nil {
				storeChecksum(f.hm, f.ps.Checksum())
				f.pc = 9
				continue
			}
			var d sim.Time
			if m.CsumValid {
				d = k.Cost.ChecksumCombine
			} else {
				d = sim.Time(k.Cost.TCPKernelChecksum.PerByte * float64(m.Len()))
			}
			f.pc = 7
			if !k.Use(p, trace.LayerTCPCksumTx, d) {
				return
			}

		case 7: // integrated mode: fold the charged link, advance
			m := f.csM
			if m.CsumValid {
				f.ps.Combine(m.Csum)
			} else {
				f.ps.Add(m.Bytes())
			}
			f.csM = m.Next()
			f.pc = 6

		case 8: // standard mode: one charged pass over the real bytes
			key := c.pcbEnt.Key
			ps := checksum.TCPPseudo(key.LocalAddr, key.RemoteAddr, f.hdrLen+f.length)
			for m := f.hm; m != nil; m = m.Next() {
				ps.Add(m.Bytes())
			}
			storeChecksum(f.hm, ps.Checksum())
			f.pc = 9

		case 9: // hand the segment to IP
			c.S.Stats.SegsOut++
			f.pc = 10
			c.S.IP.Output(p, c.remoteAddr(), ip.ProtoTCP, f.hm)
			return

		case 10: // arm the timer, note what was sent, loop if the pass said to
			if c.sndUna != c.sndMax {
				c.setRexmt()
			}
			// Record the advertised window edge for the update rule.
			adv := c.rcvNxt.Add(int(f.th.Win))
			if adv.Gt(c.rcvAdv) {
				c.rcvAdv = adv
			}
			c.flagAckNow = false
			c.flagDelAck = false
			if f.tagged {
				p.PopTag()
			}
			f.data, f.hm, f.csM = nil, nil, nil
			more := f.sbLen - (f.off + f.length)
			if f.sendalot && more > 0 && f.off+f.length < f.win {
				f.pc = 1
				continue
			}
			f.pc = 11

		case 11: // release the splnet lock; the frame goes back to its owner
			c.outBusy = false
			c.outWait.WakeAll()
			if f == &c.out {
				f.busy = false
			} else if spare := sim.Local[spareOutput](k.Env); spare.f == nil {
				*f = outputOp{}
				spare.f = f
			}
			p.Return()
			return
		}
	}
}

// spareOutput is the one output frame an event loop keeps for whichever
// connection next finds its own in use: the second of two overlapping
// callers runs on a borrowed frame, which goes back to the loop — the
// connection's own goes back to the connection — so the next overlap, on
// any connection of the loop, takes that one rather than a new one. It is
// parked zeroed, so it pins no connection while it waits.
type spareOutput struct{ f *outputOp }

// outputFlags returns the header flags implied by the connection state.
func (c *Conn) outputFlags() uint8 {
	switch c.state {
	case StateSynSent:
		return FlagSYN
	case StateSynRcvd:
		return FlagSYN | FlagACK
	case StateFinWait1, StateLastAck, StateClosing:
		return FlagFIN | FlagACK
	case StateClosed, StateListen:
		return FlagACK
	default:
		return FlagACK
	}
}

// storeChecksum writes ck into the checksum field of the header mbuf.
func storeChecksum(hm *mbuf.Mbuf, ck uint16) {
	b := hm.Bytes()
	b[16] = byte(ck >> 8)
	b[17] = byte(ck)
}

// clampWin narrows a window to the 16-bit header field.
func clampWin(w int) uint16 {
	if w < 0 {
		return 0
	}
	if w > 65535 {
		return 65535
	}
	return uint16(w)
}

// pseudoPartial builds the verification pseudo-header from a received IP
// header.
func pseudoPartial(h ip.Header, segLen int) checksum.Partial {
	return checksum.TCPPseudo(h.Src, h.Dst, segLen)
}
