// Lanes and timers: the two scheduling shapes that keep work out of the
// heap until it is live. See the package comment (time.go) for when each
// is right and why neither can change the order events fire in.
package sim

import "fmt"

// Lane fires its bound owner at times that never decrease — the cells
// leaving a transmit engine, the frames crossing a fibre. Only the lane's
// earliest record sits in the heap; the rest wait in FIFO order outside
// it and take the heap entry over, in place, as it fires. Each record is
// stamped with the environment's next sequence number when At is called,
// exactly as Env.At would stamp it, so the owner runs at the same points
// of the total order as one event per record would.
//
// The zero Lane is idle; Bind it once. A lane is meant to be embedded by
// value — a fabric has several per port — so it is four words: no
// environment, and no storage of its own (queued records live in the
// environment's backlog). A drained lane carries nothing into the next
// run: last is read only while n > 0.
type Lane struct {
	owner LaneOwner
	last  Time  // time of the newest pending record
	tail  int32 // that record in Env.backlog; 0 when only the heap entry is pending
	n     int32 // pending records, the one in the heap included
}

// LaneOwner is what a Lane fires: the owner it was bound to, told which of
// its lanes a record is due on. As with TimerOwner, an owner embeds its
// lanes by value and tells them apart by address, so binding one stores a
// pointer the owner already is — where a method value bound per lane was
// an allocation per lane.
type LaneOwner interface{ LaneFired(l *Lane) }

// laneOneShot rides in the arg word of an event whose do is a *Lane and
// marks it as an out-of-order At (see Lane.At), which fires once and is
// no part of the lane's records; the lane's own heap entry carries zero.
const laneOneShot = 1

// backlog stores every lane's queued records in one slab per
// environment, each lane's as a circular list through next (the newest
// record links back to the oldest), with the unused records on a free
// list. Indices are 1-based so that zero means none. The slab grows to
// the most records ever queued at once across all lanes — on a large
// fabric far fewer than a ring per lane would hold.
type backlog struct {
	recs []laneRec
	free int32
	n    int // records in use
}

// laneRec is a queued lane record: the key its heap entry will carry.
type laneRec struct {
	at   Time
	seq  uint64
	next int32
}

// Bind sets the owner the lane fires.
func (l *Lane) Bind(owner LaneOwner) { l.owner = owner }

// At schedules a firing of the lane's owner at absolute time t; name
// labels the lane's heap entry. A t below the lane's newest pending time
// is legal: that one call becomes an ordinary one-shot event carrying the
// lane, so order holds regardless.
func (l *Lane) At(e *Env, t Time, name string) { e.scheduleLane(l, t, name) }

func (e *Env) scheduleLane(l *Lane, t Time, name string) {
	if l.n == 0 {
		l.n, l.last = 1, t
		e.schedule(t, name, l, 0)
		return
	}
	if t < l.last {
		e.schedule(t, name, l, laneOneShot)
		return
	}
	// t ≥ last ≥ the heap entry's time ≥ now: never in the past.
	l.last = t
	e.seq++
	b := &e.backlog
	i := b.free
	if i != 0 {
		b.free = b.recs[i-1].next
	} else {
		b.recs = append(b.recs, laneRec{})
		i = int32(len(b.recs))
	}
	r := &b.recs[i-1]
	r.at, r.seq, r.next = t, e.seq, i
	if l.tail != 0 {
		newest := &b.recs[l.tail-1]
		r.next, newest.next = newest.next, i
	}
	l.tail = i
	l.n++
	b.n++
}

// advance steps lane l, whose entry is the root, past the record now
// firing: the root is re-keyed to the lane's oldest queued record, which
// goes back to b's free list, or popped when none waits.
func (h *eventHeap) advance(l *Lane, b *backlog) {
	l.n--
	if l.n == 0 {
		h.pop()
		return
	}
	newest := &b.recs[l.tail-1]
	i := newest.next
	r := &b.recs[i-1]
	if i == l.tail {
		l.tail = 0
	} else {
		newest.next = r.next
	}
	r.next, b.free = b.free, i
	b.n--
	h.rekey(r.at, r.seq)
}

// Timer is a cancellable, re-armable one-shot: a retransmission timeout,
// a delayed ACK, an operation deadline. It fires at the (time, sequence)
// point of its latest Set — where an event scheduled by that call would
// fire — unless stopped or set again first. While its deadline only
// moves later it owns a single heap entry, which walks: reaching the
// root short of the deadline, the entry is re-keyed in place to it. The
// hand-rolled alternative (a generation counter and a fresh event per
// re-arm) leaves every superseded event in the heap until it pops as a
// no-op; a steady TCP echo re-arms per segment against a one-second
// timeout, which kept hundreds of dead events under every live one.
//
// The zero Timer is stopped; Bind it once. Like a Lane it is meant to be
// embedded by value and holds no environment.
type Timer struct {
	owner   TimerOwner
	at      Time   // the live deadline: the latest Set
	seq     uint64 // and the sequence number stamped on it
	heapAt  Time   // key of the heap entry that walks to the deadline;
	heapSeq uint64 // heapSeq is zero when there is none
	armed   bool
}

// TimerOwner is what a Timer fires: the owner it was bound to, told which
// of its timers expired. An owner embeds its timers by value and tells
// them apart by address, so binding one stores a pointer the owner
// already is — where a method value bound per timer was an allocation
// per timer.
type TimerOwner interface{ TimerFired(t *Timer) }

// Bind sets the owner the timer fires.
func (t *Timer) Bind(owner TimerOwner) { t.owner = owner }

// Armed reports whether the timer will fire unless stopped or re-set.
func (t *Timer) Armed() bool { return t.armed }

// Stop disarms the timer. Its heap entry still walks to the last
// deadline and expires there silently: the clock a drained simulation
// stops at is the one the superseded event would have left.
func (t *Timer) Stop() { t.armed = false }

// Set arms the timer to fire at absolute time at, replacing any earlier
// deadline; name labels its heap entry.
func (t *Timer) Set(e *Env, at Time, name string) { e.scheduleTimer(t, at, name) }

func (e *Env) scheduleTimer(t *Timer, at Time, name string) {
	if at < e.now {
		panic(fmt.Sprintf("sim: setting %q to %v, before now %v", name, at, e.now))
	}
	e.seq++
	prevAt, prevSeq := t.at, t.seq
	t.at, t.seq, t.armed = at, e.seq, true
	if t.heapSeq != 0 && prevAt > at && prevAt > t.heapAt {
		// The deadline this one replaces lies beyond anything the timer's
		// entry will now reach (it walks no further than at, or dies where
		// it stands), so it gets a dead entry of its own: the latest
		// deadline ever set still pops, as it does when each is an event,
		// and a drained clock stops where it did.
		e.scheduleTier(prevAt).push(event{at: prevAt, seq: prevSeq, name: name, do: t})
	}
	if t.heapSeq == 0 || at < t.heapAt {
		// No entry, or one too late to fire this deadline (it will die at
		// its own time): push one. Otherwise — the common case, a deadline
		// moving later — the entry already in the heap walks here.
		t.heapAt, t.heapSeq = at, e.seq
		e.scheduleTier(at).push(event{at: at, seq: e.seq, name: name, do: t})
	}
}

// expire handles one of timer t's entries, carrying seq, at the root. A
// dead entry is popped. The walking entry is re-keyed to the deadline if
// it is short of it; on the deadline it is popped, and expire reports
// whether the timer was still armed — whether to fire.
func (h *eventHeap) expire(t *Timer, seq uint64) bool {
	switch {
	case seq != t.heapSeq:
		h.pop()
	case seq != t.seq:
		t.heapAt, t.heapSeq = t.at, t.seq
		h.rekey(t.at, t.seq)
	default:
		t.heapSeq = 0
		h.pop()
		if t.armed {
			t.armed = false
			return true
		}
	}
	return false
}
