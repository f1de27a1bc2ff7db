// Package trace records virtual-time events attributed to protocol
// layers and packets, reproducing the paper's instrumentation methodology
// (§1.2): the authors bracketed kernel code sections with reads of a 40 ns
// TurboChannel clock; we bracket the same code sections with reads of the
// simulation clock.
//
// A Recorder collects one kind of record, typed Events: CPU charges
// attributed to a layer (EvCPU, the bracketed code sections), socket
// enqueue/dequeue, tcp_output/tcp_input, PCB lookups, IP
// send/queue/deliver, driver TX/RX, and wire departure/arrival — each
// keyed by a PacketID derived from the bytes on the wire (connection
// 4-tuple plus sequence number). A recorder is armed for the whole run
// and windowed by time: BreakdownFromEvents sums one host's CPU charges
// per layer over a window, which is how Tables 2 and 3 are built;
// LastArrival finds the receive-side window's origin, the last wire
// arrival. EventsFrom joins the per-host streams deterministically from
// a window's start on, clipping a CPU charge that straddles it by the
// same rule, BuildTimelines reconstructs each packet's life as a span
// tree, and ChromeTrace exports the stream in Chrome trace_event format
// for flamegraph-style inspection.
//
// The measurement methodology — which window each table uses, why the
// receive origin is the last wire arrival, and the fixed-seed
// determinism contract — is documented in docs/METHODOLOGY.md.
package trace

// Layer identifies a row of the paper's breakdown tables.
type Layer string

// The layers of the transmit-side (Table 2) and receive-side (Table 3)
// breakdowns. TCP is split into its three components exactly as the paper
// splits it. Transmit and receive variants are distinct because in the
// round-trip benchmark both directions execute on each host and the two
// tables attribute them separately.
const (
	LayerUserTx       Layer = "User(tx)"         // write syscall + copy into mbufs
	LayerUserRx       Layer = "User(rx)"         // read syscall + copy to user space
	LayerTCPCksumTx   Layer = "TCP.checksum(tx)" // checksum over outgoing header + data
	LayerTCPCksumRx   Layer = "TCP.checksum(rx)" // checksum over incoming header + data
	LayerTCPMcopy     Layer = "TCP.mcopy"        // transmit-side copy for retransmission
	LayerTCPSegmentTx Layer = "TCP.segment(tx)"  // remaining TCP output processing
	LayerTCPSegmentRx Layer = "TCP.segment(rx)"  // remaining TCP input processing
	LayerIPTx         Layer = "IP(tx)"           // ip_output
	LayerIPRx         Layer = "IP(rx)"           // ip_input
	LayerATMTx        Layer = "ATM(tx)"          // driver + adapter, transmit
	LayerATMRx        Layer = "ATM(rx)"          // driver + adapter, receive
	LayerEtherTx      Layer = "Ether(tx)"        // Ethernet driver, transmit
	LayerEtherRx      Layer = "Ether(rx)"        // Ethernet driver, receive
	LayerIPQ          Layer = "IPQ"              // IP input queue scheduling latency
	LayerWakeup       Layer = "Wakeup"           // run-queue wait after sowakeup
	LayerMbuf         Layer = "Mbuf"             // mbuf bookkeeping outside other rows
	LayerWire         Layer = "Wire"             // time on the physical link
	LayerIdle         Layer = "Idle"             // CPU idle inside a measured window
)

// Recorder keeps the typed events of one host. The zero value is a valid,
// disarmed recorder; recording calls on a disarmed recorder are cheap
// no-ops, so the protocol code is always instrumented and keeps nothing
// unless a reader asked for events. Arming (EnablePackets) is the only
// state: a recorder is armed before its run and keeps every event of it,
// handshake and warmup included. The measured window is a time, not a
// state — readers cut the stream by time (BreakdownFromEvents,
// EventsFrom), as the paper timed its measured loop by reading a clock.
type Recorder struct {
	packets bool
	events  []Event
}

// Reset discards all events, keeping the buffer for the next run.
func (r *Recorder) Reset() { r.events = r.events[:0] }
