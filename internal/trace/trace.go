// Package trace records virtual-time latency spans attributed to protocol
// layers, reproducing the paper's instrumentation methodology (§1.2): the
// authors bracketed kernel code sections with reads of a 40 ns TurboChannel
// clock; we bracket the same code sections with reads of the simulation
// clock.
//
// A Recorder collects Spans (a layer name plus a start and end time) and
// Marks (named point events such as "the last cell of the last segment
// arrived", which the paper uses as the origin for receive-side
// attribution). The experiment harness then computes per-layer breakdowns
// over a window, mirroring Tables 2 and 3.
//
// On top of the aggregate spans sits the per-packet attribution engine:
// when packet tracing is armed (EnablePackets) the same instrumentation
// points also emit typed Events — CPU charges, socket enqueue/dequeue,
// tcp_output/tcp_input, PCB lookups, IP send/queue/deliver, driver
// TX/RX, and wire departure/arrival — each keyed by a PacketID derived
// from the bytes on the wire (connection 4-tuple plus sequence number).
// MergeEvents joins the per-host streams deterministically,
// BuildTimelines reconstructs each packet's life as a span tree, and
// ChromeTrace exports the stream in Chrome trace_event format for
// flamegraph-style inspection. BreakdownFromEvents re-derives the
// paper's tables from the event stream; core.RunTimelineStudy asserts
// the re-derivation agrees with the span-based tables exactly.
//
// The measurement methodology — which window each table uses, why the
// receive origin is the last wire arrival, and the fixed-seed
// determinism contract — is documented in docs/METHODOLOGY.md.
package trace

import "repro/internal/sim"

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

// MarkFrameArrival is the mark name drivers record when a link-level
// frame's final cell (ATM) or the frame itself (Ethernet) reaches the
// receive hardware. It is the origin of the paper's receive-side
// measurements ("the arrival of the last group of ATM cells comprising
// the last TCP segment").
const MarkFrameArrival = "frame-arrival"

// Span is one bracketed interval of virtual time attributed to a layer.
type Span struct {
	Layer Layer
	Start sim.Time
	End   sim.Time
}

// Duration returns the span length.
func (s Span) Duration() sim.Time { return s.End - s.Start }

// Mark is a named point event.
type Mark struct {
	Name string
	At   sim.Time
}

// Recorder accumulates spans, marks and events while enabled. The zero
// value is a valid, disabled recorder; recording calls on a disabled
// recorder are cheap no-ops, so the protocol code is always instrumented
// and the experiment harness flips recording on only for measured
// iterations (the paper likewise timed only the measured loop).
//
// Marks are always kept while enabled. The two bulky records are kept for
// a reader: events only once armed (EnablePackets), spans unless disarmed
// (DisableSpans) — an 8000-byte echo trial charges tens of thousands of
// spans a host, and a sweep that reads round-trip times reads none.
type Recorder struct {
	enabled bool
	packets bool
	noSpans bool
	spans   []Span
	marks   []Mark
	events  []Event
}

// Enable turns recording on, giving the record buffers a first size so a
// short measured window appends without growing; a long one grows them,
// and they are retained across Reset, so repeated windows reuse one
// allocation either way.
func (r *Recorder) Enable() {
	r.enabled = true
	if !r.noSpans && cap(r.spans) == 0 {
		r.spans = make([]Span, 0, 2048)
	}
	if cap(r.marks) == 0 {
		r.marks = make([]Mark, 0, 128)
	}
	if r.packets && cap(r.events) == 0 {
		r.events = make([]Event, 0, 2048)
	}
}

// Disable turns recording off without discarding existing records.
func (r *Recorder) Disable() { r.enabled = false }

// DisableSpans makes Span a no-op even while the recorder is enabled,
// for a run nobody will ask for a Breakdown: a testbed disarms every
// host's recorder when it is configured. Marks and events are unaffected.
func (r *Recorder) DisableSpans() { r.noSpans = true }

// EnableSpans restores the zero value's behaviour — spans are kept while
// the recorder is enabled. Whoever is going to read Spans or Breakdown of
// a testbed's recorder calls it before the run.
func (r *Recorder) EnableSpans() { r.noSpans = false }

// Enabled reports whether the recorder is accepting records.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled }

// Reset discards all spans, marks, and events.
func (r *Recorder) Reset() {
	r.spans = r.spans[:0]
	r.marks = r.marks[:0]
	r.events = r.events[:0]
}

// Span records an interval attributed to a layer. Inverted intervals panic:
// they indicate a broken cost charge, not a measurement.
//
// A span that starts exactly where the previous one ended, on the same
// layer, extends it instead of being appended: the drivers charge the CPU
// once per cell, back to back, and a large datagram would otherwise leave
// hundreds of abutting records. Breakdown clips each span to the window
// and adds, so the merged span contributes exactly what its pieces would
// have, whatever the window cuts through.
func (r *Recorder) Span(layer Layer, start, end sim.Time) {
	if !r.Enabled() || r.noSpans {
		return
	}
	if end < start {
		panic("trace: span ends before it starts")
	}
	if n := len(r.spans); n > 0 {
		if last := &r.spans[n-1]; last.Layer == layer && last.End == start {
			last.End = end
			return
		}
	}
	r.spans = append(r.spans, Span{Layer: layer, Start: start, End: end})
}

// Mark records a named point event.
func (r *Recorder) Mark(name string, at sim.Time) {
	if !r.Enabled() {
		return
	}
	r.marks = append(r.marks, Mark{Name: name, At: at})
}

// Spans returns the recorded spans in insertion order.
func (r *Recorder) Spans() []Span { return r.spans }

// LastMark returns the time of the latest mark with the given name at or
// before limit, and whether one exists.
func (r *Recorder) LastMark(name string, limit sim.Time) (sim.Time, bool) {
	var best sim.Time
	found := false
	for _, m := range r.marks {
		if m.Name == name && m.At <= limit && (!found || m.At > best) {
			best = m.At
			found = true
		}
	}
	return best, found
}

// Breakdown sums span time per layer, clipped to the window [start, end].
// This is how the paper turns raw timestamps into table rows: a span
// contributes only the part of it that lies inside the measured window
// (§2.2: "we only measure the portion of the receive processing that
// actually contributes to the overall latency").
func (r *Recorder) Breakdown(start, end sim.Time) map[Layer]sim.Time {
	out := make(map[Layer]sim.Time)
	for _, s := range r.spans {
		lo, hi := s.Start, s.End
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		if hi > lo {
			out[s.Layer] += hi - lo
		}
	}
	return out
}
