package trace

import (
	"fmt"

	"repro/internal/sim"
)

// PacketID identifies one TCP segment on the wire: the connection
// 4-tuple plus the segment's sequence number. Every layer derives the
// same identity independently from the bytes it handles (the way a
// packet capture would), so events recorded at different layers — and on
// different hosts — join into one per-packet timeline without any shared
// pointer or side channel. A retransmission carries the same PacketID as
// the original transmission and lands in the same timeline, which is
// exactly what a latency investigation wants to see.
//
// Events that belong to a connection but not to a specific segment
// (socket enqueue/dequeue, which operate on the byte stream before
// segmentation) carry a PacketID with Seq zero; events that belong to no
// connection at all (scheduler wakeups, idle interrupt work) carry the
// zero PacketID and are reported as unattributed.
type PacketID struct {
	Src     uint32 `json:"src"`
	Dst     uint32 `json:"dst"`
	SrcPort uint16 `json:"sport"`
	DstPort uint16 `json:"dport"`
	Seq     uint32 `json:"seq"`
}

// IsZero reports whether the identity is entirely unknown.
func (id PacketID) IsZero() bool { return id == PacketID{} }

// String renders the identity the way tcpdump would:
// "192.168.1.1:1025>192.168.1.2:7#64001".
func (id PacketID) String() string {
	return fmt.Sprintf("%s:%d>%s:%d#%d",
		ipString(id.Src), id.SrcPort, ipString(id.Dst), id.DstPort, id.Seq)
}

func ipString(a uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// EventKind names a layer crossing in a packet's life. The kinds form a
// fixed vocabulary so tools can switch on them; the leading component
// (before the dot) groups kinds by layer for display categorization.
type EventKind string

// The layer crossings the stack emits, in the order a transmitted
// segment encounters them and then the order its receiver does.
const (
	// EvCPU is a CPU charge: some interval of processor time attributed
	// to a breakdown row (Event.Layer) and — when the processing belongs
	// to an identifiable segment — to that packet. EvCPU events are the
	// raw material of the paper's Tables 2 and 3: summing their durations
	// per layer inside a measurement window is the breakdown
	// (BreakdownFromEvents).
	EvCPU EventKind = "cpu"

	// EvSockEnqueue marks sosend appending user bytes to the send socket
	// buffer (Len bytes; Aux is the buffer occupancy after the append).
	// Socket events are connection-scoped (PacketID.Seq is zero): the
	// byte stream has not been segmented yet.
	EvSockEnqueue EventKind = "sock.enqueue"
	// EvSockDequeue marks soreceive copying bytes out to user space
	// (Len bytes; Aux is the occupancy after the copy).
	EvSockDequeue EventKind = "sock.dequeue"

	// EvTCPOutput marks tcp_output committing to send one segment:
	// Len is the payload length, Aux the header flags.
	EvTCPOutput EventKind = "tcp.output"
	// EvTCPInput marks tcp_input accepting one demultiplexed segment:
	// Len is the segment length (header + data), Aux the header flags.
	EvTCPInput EventKind = "tcp.input"
	// EvPCBLookup marks the demultiplexing lookup for an inbound
	// segment. Aux is the number of table entries searched, or -1 for a
	// hit in the one-entry header-prediction cache (§3).
	EvPCBLookup EventKind = "tcp.pcblookup"

	// EvIPSend marks ip_output handing a datagram to the interface
	// (Len is the datagram length including the IP header).
	EvIPSend EventKind = "ip.send"
	// EvIPEnqueue marks a driver placing a received datagram on the IP
	// input queue from interrupt context (Aux is the queue depth after
	// the append).
	EvIPEnqueue EventKind = "ip.enqueue"
	// EvIPDequeue spans the datagram's residence on the IP input queue:
	// At is the enqueue time and Dur the wait until the software
	// interrupt dequeued it — the measured form of the paper's IPQ row.
	EvIPDequeue EventKind = "ip.dequeue"
	// EvIPDeliver marks ip_input handing the verified payload to the
	// transport protocol (Aux is the IP protocol number).
	EvIPDeliver EventKind = "ip.deliver"

	// EvDriverTx spans the network driver's transmit processing for one
	// datagram, from entering the driver to the last byte handed to the
	// adapter (Len is the datagram length).
	EvDriverTx EventKind = "driver.tx"
	// EvDriverRx spans the driver's receive processing for one datagram:
	// for ATM, from popping its first cell off the adapter FIFO to
	// enqueueing the reassembled datagram for IP; for Ethernet, from
	// popping the frame to the enqueue.
	EvDriverRx EventKind = "driver.rx"

	// EvWireDepart marks the instant the adapter finishes clocking the
	// datagram's final bit (ATM: final cell) onto the physical link.
	EvWireDepart EventKind = "wire.depart"
	// EvWireArrive marks the instant the datagram's final cell (ATM) or
	// the frame itself (Ethernet) reaches the receiving adapter — the
	// origin of the paper's receive-side measurements ("the arrival of
	// the last group of ATM cells comprising the last TCP segment"; see
	// LastArrival).
	EvWireArrive EventKind = "wire.arrive"
)

// Event is one typed record in a packet trace. At and Dur are virtual
// time; Dur is zero for instantaneous crossings. ID is the packet (or
// connection) the event belongs to, zero when unknown. Layer is set on
// EvCPU events only. Len and Aux carry kind-specific detail documented
// on each kind.
type Event struct {
	Kind  EventKind `json:"kind"`
	Layer Layer     `json:"layer,omitempty"`
	At    sim.Time  `json:"at_ns"`
	Dur   sim.Time  `json:"dur_ns,omitempty"`
	ID    PacketID  `json:"id"`
	Len   int       `json:"len,omitempty"`
	Aux   int64     `json:"aux,omitempty"`
}

// End returns the event's end time (At for instantaneous events).
func (e Event) End() sim.Time { return e.At + e.Dur }

// EnablePackets arms per-packet event recording on the recorder and
// gives its event buffer a first size, so a short run appends without
// growing; a long one grows it, and it is retained across Reset, so
// repeated runs reuse one allocation either way. Packet tracing records
// host-memory data only — it charges no simulated time — so a traced run
// is bit-identical in timing to an untraced one.
func (r *Recorder) EnablePackets() {
	r.packets = true
	if cap(r.events) == 0 {
		r.events = make([]Event, 0, 2048)
	}
}

// DisablePackets disarms per-packet event recording and lets go of the
// event buffer. Testbed reuse needs it: a lab whose previous trial traced
// packets must behave exactly like a freshly built untraced one, and hold
// no trace memory, when its next trial does not.
func (r *Recorder) DisablePackets() { r.packets, r.events = false, nil }

// PacketsEnabled reports whether the recorder is armed. Instrumentation
// sites use it to skip identity parsing when nothing would be kept.
func (r *Recorder) PacketsEnabled() bool { return r != nil && r.packets }

// Event appends a typed event. Calls on a disarmed recorder are cheap
// no-ops. A negative duration panics: it indicates a broken cost
// charge, not a measurement.
//
// An EvCPU event that starts exactly where the previous recorded event
// ends, when that event is also EvCPU with the same layer and packet,
// extends it instead of being appended: the drivers charge the CPU once
// per cell, back to back, and an 8000-byte echo would otherwise keep
// about seven times the records. BreakdownFromEvents and EventsFrom clip
// each event to the window, so the merged event contributes exactly what
// its pieces would have, whatever the window cuts through.
func (r *Recorder) Event(e Event) {
	if !r.PacketsEnabled() {
		return
	}
	if e.Dur < 0 {
		panic("trace: event ends before it starts")
	}
	if n := len(r.events); n > 0 && e.Kind == EvCPU {
		if last := &r.events[n-1]; last.Kind == EvCPU && last.Layer == e.Layer &&
			last.ID == e.ID && last.End() == e.At {
			last.Dur += e.Dur
			return
		}
	}
	r.events = append(r.events, e)
}

// Events returns the recorded events in emission order.
func (r *Recorder) Events() []Event { return r.events }
