package tcp

import (
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/trace"
)

// input processes one inbound segment for an existing connection. The
// chain m holds the segment data (header already parsed and stripped);
// it may be nil for a pure ACK. It is a frame call: the resumable input
// frame is pushed onto p, so input must be the caller's last action
// before its Step returns.
func (c *Conn) input(p *sim.Proc, th Header, m *mbuf.Mbuf) {
	f := &c.in
	if f.busy {
		panic("tcp: segment input re-entered on one connection")
	}
	f.busy = true
	f.pc, f.th, f.m = 0, th, m
	p.Call(f)
}

// connInputOp is the resumable state of one segment's tcp_input
// processing on an established connection: header prediction, then the
// full slow path. Each connection holds one — segments arrive from the
// netisr one at a time.
type connInputOp struct {
	c     *Conn
	pc    int
	th    Header // mutated by duplicate-data trimming
	m     *mbuf.Mbuf
	dlen  int
	saved Seq  // snd_nxt snapshot across the fast-retransmit output
	busy  bool // between input and the frame's return
}

func (f *connInputOp) Step(p *sim.Proc) {
	c := f.c
	k := c.K
	for {
		switch f.pc {
		case 0: // header prediction (§3), then slow-path dispatch
			th := f.th
			f.dlen = mbuf.ChainLen(f.m)

			// BSD 4.4 alpha precomputes the expected next header and takes
			// a fast path when the incoming segment matches: ESTABLISHED,
			// no unusual flags, in-sequence, window unchanged, and not
			// retransmitting. Within that, exactly two cases exist — the
			// two common cases of *unidirectional* transfer:
			//
			//   (a) a pure ACK that acknowledges new data (the sender's
			//       side);
			//   (b) a pure in-sequence data segment acknowledging nothing
			//       new (the receiver's side).
			//
			// An RPC-style exchange delivers data *with* a piggybacked ACK
			// of new data, which fits neither case — the paper's central
			// observation about why header prediction does not help
			// request-response traffic.
			if c.S.PredictionEnabled && c.state == StateEstablished &&
				th.Flags&(FlagSYN|FlagFIN|FlagRST|FlagURG) == 0 &&
				th.Flags&FlagACK != 0 &&
				th.Seq == c.rcvNxt &&
				int(th.Win) == c.sndWnd &&
				c.sndNxt == c.sndMax {

				if f.dlen == 0 && th.Ack.Gt(c.sndUna) && th.Ack.Leq(c.sndMax) {
					// Case (a): pure ACK for outstanding data.
					f.pc = 1
					if !k.Use(p, trace.LayerTCPSegmentRx, k.Cost.TCPInputFast) {
						return
					}
					continue
				}
				if f.dlen > 0 && th.Ack == c.sndUna && len(c.reass) == 0 &&
					f.dlen <= c.so.Rcv.Space() {
					// Case (b): pure in-sequence data, nothing new acked.
					f.pc = 2
					if !k.Use(p, trace.LayerTCPSegmentRx, k.Cost.TCPInputFast) {
						return
					}
					continue
				}
			}
			// Slow path: the full tcp_input processing.
			f.pc = 3
			if !k.Use(p, trace.LayerTCPSegmentRx, k.Cost.TCPInputSlow) {
				return
			}

		case 1: // fast path (a): pure ACK for outstanding data
			c.S.Stats.FastPathAck++
			c.processAck(f.th.Ack)
			c.so.SndWakeup()
			if c.so.Snd.Len() > c.sndNxt.Diff(c.sndUna) {
				f.pc = 7
				c.output(p)
				return
			}
			f.pc = 7

		case 2: // fast path (b): pure in-sequence data
			c.S.Stats.FastPathData++
			c.rcvNxt = c.rcvNxt.Add(f.dlen)
			c.so.Rcv.Append(f.m)
			f.m = nil
			c.so.RcvWakeup()
			// BSD's receive-side ACK strategy: delay the first ACK, force
			// one on every second unacknowledged segment.
			if c.flagDelAck {
				c.flagDelAck = false
				c.flagAckNow = true
				f.pc = 7
				c.output(p)
				return
			}
			c.flagDelAck = true
			c.scheduleDelack()
			f.pc = 7

		case 3: // slow path entry
			c.S.Stats.SlowPath++
			f.pc = 4

		case 4:
			if f.slowStep(p) {
				return
			}

		case 5: // resume after the fast-retransmit output
			if f.saved.Gt(c.sndNxt) {
				c.sndNxt = f.saved
			}
			// Window update from the most recent segment.
			c.sndWnd = int(f.th.Win)
			f.pc = 6

		case 6:
			f.finishSlow(p)
			return

		case 7: // finish: free the frame for the next segment
			f.m = nil
			f.busy = false
			p.Return()
			return
		}
	}
}

// processAck advances the send window for an acceptable new ACK.
func (c *Conn) processAck(ack Seq) {
	acked := ack.Diff(c.sndUna)
	if acked <= 0 {
		return
	}
	// Congestion window growth: slow start below ssthresh, linear
	// (per-ACK mss*mss/cwnd) above.
	if c.cwnd < c.ssthresh {
		c.cwnd += c.mss
	} else {
		c.cwnd += c.mss * c.mss / c.cwnd
		if c.cwnd > 65535 {
			c.cwnd = 65535
		}
	}
	// RTT sample if the timed sequence number is covered (Karn's rule
	// is handled by rtTiming being cleared on retransmission).
	if c.rtTiming && ack.Gt(c.rtSeq) {
		c.rttUpdate(c.K.Now() - c.rtStart)
		c.rtTiming = false
	}
	// Release acknowledged bytes (the FIN and SYN occupy sequence space
	// but no buffer bytes).
	drop := acked
	if drop > c.so.Snd.Len() {
		drop = c.so.Snd.Len()
	}
	if drop > 0 {
		c.so.Snd.Drop(drop)
	}
	c.sndUna = ack
	if c.sndNxt.Lt(c.sndUna) {
		c.sndNxt = c.sndUna
	}
	c.rexmtShift = 0
	if c.sndUna == c.sndMax {
		c.clearRexmt()
	} else {
		c.setRexmt()
	}
}

// slowStep is the front half of the full state-machine processing for
// segments the fast path rejected: RST, connection-state handling,
// duplicate-data trimming, and ACK processing. It reports whether the
// frame's Step must return (because a frame was pushed or the processing
// terminated with one in tail position); otherwise it has set f.pc for
// the driving loop to continue.
func (f *connInputOp) slowStep(p *sim.Proc) bool {
	c := f.c
	k := c.K
	th := &f.th

	if th.Flags&FlagRST != 0 {
		k.Pool.Free(f.m)
		f.m = nil
		c.drop(ErrReset)
		f.pc = 7
		return false
	}

	switch c.state {
	case StateSynSent:
		k.Pool.Free(f.m)
		f.m = nil
		if th.Flags&(FlagSYN|FlagACK) != FlagSYN|FlagACK ||
			!th.Ack.Gt(c.iss) || !th.Ack.Leq(c.sndMax) {
			f.pc = 7
			return false
		}
		c.irs = th.Seq
		c.rcvNxt = th.Seq.Add(1)
		if th.MSS != 0 && int(th.MSS) < c.mss {
			c.mss = int(th.MSS)
		}
		if th.AltCksum == AltCksumNone && c.wantCksumOff {
			c.cksumOff = true
		}
		c.cwnd = c.mss
		c.sndWnd = int(th.Win)
		c.processAck(th.Ack)
		c.state = StateEstablished
		c.flagAckNow = true
		c.so.SetConnected()
		f.pc = 7
		c.output(p)
		return true
	case StateClosed, StateListen:
		k.Pool.Free(f.m)
		f.m = nil
		f.pc = 7
		return false
	}

	// Trim duplicate data at the front (retransmissions overlapping
	// what we already have).
	if th.Seq.Lt(c.rcvNxt) {
		todrop := c.rcvNxt.Diff(th.Seq)
		if th.Flags&FlagSYN != 0 {
			th.Flags &^= FlagSYN
			th.Seq = th.Seq.Add(1)
			todrop--
		}
		if todrop >= f.dlen {
			// Entirely duplicate: ACK it and drop the data, but
			// still process the ACK field below.
			c.S.Stats.DupSegs++
			c.flagAckNow = true
			k.Pool.Free(f.m)
			f.m, f.dlen = nil, 0
			th.Flags &^= FlagFIN
			th.Seq = c.rcvNxt
		} else {
			f.m = k.Pool.Drop(f.m, todrop)
			th.Seq = th.Seq.Add(todrop)
			f.dlen -= todrop
		}
	}

	// ACK processing.
	if th.Flags&FlagACK != 0 {
		if c.state == StateSynRcvd {
			if th.Ack.Gt(c.iss) && th.Ack.Leq(c.sndMax) {
				c.state = StateEstablished
				c.so.SetConnected()
				if c.listener != nil {
					c.listener.backlog = append(c.listener.backlog, c)
					c.listener.wq.WakeAll()
				}
			}
		}
		switch {
		case th.Ack == c.sndUna && f.dlen == 0 && c.sndUna != c.sndMax &&
			int(th.Win) == c.sndWnd:
			// Duplicate ACK while data is outstanding: after three,
			// assume the segment at snd_una was lost and retransmit it
			// without waiting for the timer (BSD 4.4 fast retransmit).
			c.dupAcks++
			if c.dupAcks == 3 {
				flight := c.sndMax.Diff(c.sndUna)
				half := min2(flight, c.sndWnd) / 2
				if half < 2*c.mss {
					half = 2 * c.mss
				}
				c.ssthresh = half
				c.cwnd = c.mss
				f.saved = c.sndNxt
				c.sndNxt = c.sndUna
				c.rtTiming = false
				c.flagAckNow = true
				c.S.Stats.FastRetransmits++
				// Resume at state 5: restore snd_nxt past the
				// retransmission, then fall into data processing.
				f.pc = 5
				c.output(p)
				return true
			}
		case th.Ack.Gt(c.sndUna) && th.Ack.Leq(c.sndMax):
			c.dupAcks = 0
			finWasOutstanding := c.finSent && c.sndMax == th.Ack
			c.processAck(th.Ack)
			c.so.SndWakeup()
			if finWasOutstanding && c.sndUna == c.sndMax {
				switch c.state {
				case StateFinWait1:
					c.state = StateFinWait2
				case StateClosing:
					c.enterTimeWait()
				case StateLastAck:
					c.drop(nil)
					k.Pool.Free(f.m)
					f.m = nil
					f.pc = 7
					return false
				}
			}
		}
		// Window update from the most recent segment.
		c.sndWnd = int(th.Win)
	}
	f.pc = 6
	return false
}

// finishSlow is the back half of the slow path: data processing, FIN
// processing, and the final send decision. It always leaves the frame at
// the finish state, pushing the output frame in tail position when an
// ACK or data transmission is due.
func (f *connInputOp) finishSlow(p *sim.Proc) {
	c := f.c
	k := c.K
	th := &f.th

	// Data processing.
	if f.dlen > 0 {
		switch c.state {
		case StateEstablished, StateFinWait1, StateFinWait2:
			if th.Seq == c.rcvNxt && len(c.reass) == 0 {
				c.rcvNxt = c.rcvNxt.Add(f.dlen)
				c.so.Rcv.Append(f.m)
				f.m = nil
				c.so.RcvWakeup()
				if c.flagDelAck {
					c.flagDelAck = false
					c.flagAckNow = true
				} else {
					c.flagDelAck = true
					c.scheduleDelack()
				}
			} else {
				// Out of order: queue for reassembly, ACK now to
				// trigger the peer's recovery.
				c.S.Stats.OutOfOrderSegs++
				c.insertReass(th.Seq, f.m)
				f.m = nil
				c.pullReass()
				c.flagAckNow = true
			}
		default:
			k.Pool.Free(f.m)
			f.m = nil
		}
	} else if f.m != nil {
		k.Pool.Free(f.m)
		f.m = nil
	}

	// FIN processing (only once all data up to the FIN has arrived).
	if th.Flags&FlagFIN != 0 && th.Seq.Add(f.dlen) == c.rcvNxt && len(c.reass) == 0 {
		c.rcvNxt = c.rcvNxt.Add(1)
		c.flagAckNow = true
		c.so.SetEof()
		switch c.state {
		case StateEstablished:
			c.state = StateCloseWait
		case StateFinWait1:
			// Our FIN is unacknowledged: simultaneous close.
			c.state = StateClosing
		case StateFinWait2:
			c.enterTimeWait()
		}
	}

	f.pc = 7
	if c.flagAckNow || c.flagDelAck {
		// flagDelAck alone waits for the fast timer; AckNow sends.
		if c.flagAckNow {
			c.output(p)
		}
	} else {
		c.output(p)
	}
}

// enterTimeWait moves the connection into TIME_WAIT and arms the 2MSL
// release (TimerFired). A connection enters TIME_WAIT once, so the timer
// is set once, on a fresh entry: the (time, sequence) point an event
// scheduled 2MSL ahead would take.
func (c *Conn) enterTimeWait() {
	c.state = StateTimeWait
	c.flagAckNow = true
	c.clearRexmt()
	c.twoMSL.Set(c.K.Env, c.K.Env.Now()+2*msl, "tcp.2msl")
}

// insertReass adds an out-of-order segment to the reassembly queue,
// keeping it sorted and non-overlapping.
func (c *Conn) insertReass(seq Seq, m *mbuf.Mbuf) {
	dlen := mbuf.ChainLen(m)
	// Discard anything that duplicates queued data wholesale; partial
	// overlaps trim the incoming segment.
	for _, r := range c.reass {
		rl := mbuf.ChainLen(r.m)
		if seq.Geq(r.seq) && seq.Add(dlen).Leq(r.seq.Add(rl)) {
			c.K.Pool.Free(m)
			return
		}
	}
	// Trim overlap with rcv_nxt already handled by caller. Insert in
	// sequence order.
	idx := len(c.reass)
	for i, r := range c.reass {
		if seq.Lt(r.seq) {
			idx = i
			break
		}
	}
	c.reass = append(c.reass, reassSeg{})
	copy(c.reass[idx+1:], c.reass[idx:])
	c.reass[idx] = reassSeg{seq: seq, m: m}
}

// pullReass appends any now-contiguous queued segments to the receive
// buffer.
func (c *Conn) pullReass() {
	woke := false
	for len(c.reass) > 0 {
		r := c.reass[0]
		rl := mbuf.ChainLen(r.m)
		if r.seq.Gt(c.rcvNxt) {
			break
		}
		// Trim any duplicated prefix.
		if r.seq.Lt(c.rcvNxt) {
			over := c.rcvNxt.Diff(r.seq)
			if over >= rl {
				c.K.Pool.Free(r.m)
				c.reass = c.reass[1:]
				continue
			}
			r.m = c.K.Pool.Drop(r.m, over)
			rl -= over
		}
		c.rcvNxt = c.rcvNxt.Add(rl)
		c.so.Rcv.Append(r.m)
		woke = true
		c.reass = c.reass[1:]
	}
	if woke {
		c.so.RcvWakeup()
	}
}
