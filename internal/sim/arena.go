package sim

import "math/bits"

// Arena is an event loop's scratch memory: the byte buffers that work in
// flight needs and idle state does not — the buffer a datagram
// reassembles into, the CPCS-PDU a driver segments out of, the cells
// queued behind a transmitter, an Ethernet frame from the sending driver
// to the receiving one. Exactly one frame runs on a loop at a
// time, so the loop, not the host, is the natural owner: ten thousand
// hosts that each speak once run through the same few warm buffers
// instead of each growing and keeping its own.
//
// There is one per Env (Env.Arena), therefore one per shard, and it takes
// no lock: a buffer goes back to the arena it came from. What crosses a
// shard boundary crosses by value.
//
// Two kinds of hold, one pool underneath:
//
//   - Checkout/Return is for a buffer that lives as long as one unit of
//     work — a datagram being reassembled or transmitted, a frame on the
//     wire — and is counted: a drained loop holds none (Outstanding is
//     zero) unless a frame is genuinely stuck mid-reassembly, and
//     Env.Reset refuses to rewind with any outstanding.
//   - Get/Put is for storage a queue holds while it is non-empty and
//     gives back when it drains. It is not counted: a queue may
//     legitimately sit non-empty on a quiet loop (cells of a frame whose
//     end was lost; a cut transmitter's last records, which no local
//     event pops), and retaining storage there is no leak.
//
// The zero Arena is ready to use, so a type that works without an
// environment (atm.Reassembler) can own a private one.
type Arena struct {
	// free[c] holds the returned buffers of capacity minBuf<<c, most
	// recently returned last.
	free [arenaClasses][][]byte
	out  int

	// Poison makes every buffer coming back be filled with 0xDB first,
	// so that anything still reading it reads garbage rather than bytes
	// that happen to be right. The tests that pin the goldens set it;
	// nothing else does.
	Poison bool
}

const (
	minBuf       = 64
	arenaClasses = 12 // 64 B … 128 KiB; larger requests bypass the pool
)

// class returns the size class whose buffers hold n bytes.
func class(n int) int {
	if n <= minBuf {
		return 0
	}
	return bits.Len(uint(n-1)) - 6
}

// Get returns an empty buffer with room for at least n bytes.
func (a *Arena) Get(n int) []byte {
	c := class(n)
	if c >= arenaClasses {
		return make([]byte, 0, n)
	}
	if l := a.free[c]; len(l) > 0 {
		b := l[len(l)-1]
		a.free[c] = l[:len(l)-1]
		return b
	}
	return make([]byte, 0, minBuf<<c)
}

// Put gives a buffer from Get back. The caller must hold no other
// reference to it. A nil buffer is a no-op.
func (a *Arena) Put(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	if a.Poison {
		for i := range b {
			b[i] = 0xDB
		}
	}
	// Only buffers this pool could have made go back into it.
	if c := class(len(b)); c < arenaClasses && len(b) == minBuf<<c {
		a.free[c] = append(a.free[c], b[:0])
	}
}

// Checkout is Get for a buffer held across one unit of work; it must
// come back through Return.
func (a *Arena) Checkout(n int) []byte {
	a.out++
	return a.Get(n)
}

// Return gives a checked-out buffer back.
func (a *Arena) Return(b []byte) {
	if a.out == 0 {
		panic("sim: arena buffer returned twice")
	}
	a.out--
	a.Put(b)
}

// Outstanding returns how many checked-out buffers have not come back.
func (a *Arena) Outstanding() int { return a.out }

// Arena returns the loop's scratch arena.
func (e *Env) Arena() *Arena { return &e.arena }

// Local returns the one *T this loop keeps, making it on first use: how a
// package keeps state per event loop rather than per host — kern shares
// one set of mbuf free-lists among all the hosts of a loop this way. Like
// the arena, what it returns belongs to the loop.
func Local[T any](e *Env) *T {
	for _, v := range e.locals {
		if p, ok := v.(*T); ok {
			return p
		}
	}
	p := new(T)
	e.locals = append(e.locals, p)
	return p
}
