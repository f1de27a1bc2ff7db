package trace

import (
	"sort"

	"repro/internal/sim"
)

// HostEvent is an Event tagged with the host whose recorder emitted it.
// A merged stream of HostEvents is the unit the timeline reconstructor
// and the exporters consume.
type HostEvent struct {
	Host string `json:"host"`
	Event
}

// EventsFrom joins per-host event streams into one stream ordered by
// time, keeping what happened at or after start: an event with At >=
// start, and the part of an EvCPU charge that straddles start, clipped
// to it by the rule BreakdownFromEvents applies (clip). Any other event
// that began before start is dropped, spans included. hosts and recs are
// parallel slices in a caller-fixed order (lab.Lab uses host-address
// order); ties in At resolve by that order and then by emission order,
// so the merged stream is a pure function of the simulation — never of
// scheduling, worker count, or map iteration.
func EventsFrom(hosts []string, recs []*Recorder, start sim.Time) []HostEvent {
	if len(hosts) != len(recs) {
		panic("trace: EventsFrom host/recorder length mismatch")
	}
	var out []HostEvent
	for i, r := range recs {
		if r == nil {
			continue
		}
		for _, e := range r.Events() {
			if e.At < start {
				lo, hi := e.clip(start, sim.MaxTime)
				if e.Kind != EvCPU || hi <= lo {
					continue
				}
				e.At, e.Dur = lo, hi-lo
			}
			out = append(out, HostEvent{Host: hosts[i], Event: e})
		}
	}
	// Events are not monotonic per host (EvIPDequeue backdates to the
	// enqueue, EvWireDepart stamps the scheduled wire end), so sort by
	// At; the stable sort preserves (host, emission) order for ties.
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// SpanNode is one node of a packet's reconstructed span tree. Leaf nodes
// are individual events; interior nodes group a host's processing or a
// wire flight, and the root covers the packet's whole observed life.
type SpanNode struct {
	Name     string      `json:"name"`
	Host     string      `json:"host,omitempty"`
	StartNS  int64       `json:"start_ns"`
	EndNS    int64       `json:"end_ns"`
	Children []*SpanNode `json:"children,omitempty"`
}

// grow widens the node to cover [start, end].
func (n *SpanNode) grow(start, end sim.Time) {
	if len(n.Children) == 0 && n.StartNS == 0 && n.EndNS == 0 {
		n.StartNS, n.EndNS = int64(start), int64(end)
		return
	}
	if int64(start) < n.StartNS {
		n.StartNS = int64(start)
	}
	if int64(end) > n.EndNS {
		n.EndNS = int64(end)
	}
}

// PacketTimeline is the reconstructed life of one TCP segment (or, for
// socket-level events with Seq zero, one connection's stream
// operations): every event that named its PacketID, in time order, plus
// the span tree built from them.
type PacketTimeline struct {
	ID     PacketID    `json:"id"`
	Label  string      `json:"label"`
	Events []HostEvent `json:"events"`
	Spans  *SpanNode   `json:"spans"`
}

// TimelineSet is a full per-packet reconstruction of a traced run.
// Packets appear in order of first observation; Unattributed holds
// events (idle-time scheduler work, warmup leftovers) that carried no
// packet identity.
type TimelineSet struct {
	Packets      []*PacketTimeline `json:"packets"`
	Unattributed []HostEvent       `json:"unattributed,omitempty"`
}

// BuildTimelines groups a merged event stream by packet identity and
// reconstructs each packet's span tree. The input must already be merged
// (EventsFrom); the output is deterministic for a deterministic input.
func BuildTimelines(evs []HostEvent) *TimelineSet {
	set := &TimelineSet{}
	byID := make(map[PacketID]*PacketTimeline)
	for _, e := range evs {
		if e.ID.IsZero() {
			set.Unattributed = append(set.Unattributed, e)
			continue
		}
		tl, ok := byID[e.ID]
		if !ok {
			tl = &PacketTimeline{ID: e.ID, Label: e.ID.String()}
			byID[e.ID] = tl
			set.Packets = append(set.Packets, tl)
		}
		tl.Events = append(tl.Events, e)
	}
	for _, tl := range set.Packets {
		tl.Spans = buildSpanTree(tl)
	}
	return set
}

// buildSpanTree arranges a packet's events into a three-level tree:
// the root covers the packet's observed life; its children are one node
// per host visit (a maximal run of events on one host) interleaved with
// one node per wire flight (EvWireDepart to the next EvWireArrive); the
// leaves are the events themselves.
func buildSpanTree(tl *PacketTimeline) *SpanNode {
	root := &SpanNode{Name: "packet " + tl.Label}
	var hostNode *SpanNode
	var wireNode *SpanNode // open wire flight awaiting its arrival
	for _, e := range tl.Events {
		start, end := e.At, e.End()
		root.grow(start, end)
		switch e.Kind {
		case EvWireDepart:
			wireNode = &SpanNode{Name: "wire", StartNS: int64(e.At), EndNS: int64(e.At)}
			root.Children = append(root.Children, wireNode)
			hostNode = nil
			continue
		case EvWireArrive:
			if wireNode != nil {
				wireNode.grow(sim.Time(wireNode.StartNS), e.At)
				wireNode = nil
			}
			hostNode = nil
			// The arrival itself becomes the first leaf of the
			// receiving host's visit, so fall through.
		}
		if hostNode == nil || hostNode.Host != e.Host {
			hostNode = &SpanNode{Name: e.Host, Host: e.Host, StartNS: int64(start), EndNS: int64(end)}
			root.Children = append(root.Children, hostNode)
		}
		hostNode.grow(start, end)
		hostNode.Children = append(hostNode.Children, &SpanNode{
			Name:    leafName(e.Event),
			Host:    e.Host,
			StartNS: int64(start),
			EndNS:   int64(end),
		})
	}
	return root
}

// leafName labels a leaf span: CPU charges by their breakdown row,
// everything else by its kind.
func leafName(e Event) string {
	if e.Kind == EvCPU {
		return string(e.Layer)
	}
	return string(e.Kind)
}

// clip returns the part of e's interval [At, End] that lies inside the
// window [start, end]; it is empty when hi <= lo. It is the one window
// rule: BreakdownFromEvents sums CPU charges by it and EventsFrom cuts a
// stream by it, so the tables and the trace export agree on what a
// window holds.
func (e *Event) clip(start, end sim.Time) (lo, hi sim.Time) {
	return max(e.At, start), min(e.End(), end)
}

// BreakdownFromEvents derives a per-layer breakdown — a Tables 2/3 row
// set — from one host's event stream (its Recorder.Events): the
// durations of its EvCPU events, clipped to the window [start, end],
// summed per layer. This is how the paper turns raw timestamps into
// table rows: a charge contributes only the part of it that lies inside
// the measured window (§2.2: "we only measure the portion of the receive
// processing that actually contributes to the overall latency").
func BreakdownFromEvents(evs []Event, start, end sim.Time) map[Layer]sim.Time {
	out := make(map[Layer]sim.Time)
	for i := range evs {
		e := &evs[i]
		if e.Kind != EvCPU {
			continue
		}
		if lo, hi := e.clip(start, end); hi > lo {
			out[e.Layer] += hi - lo
		}
	}
	return out
}

// LastArrival returns the latest EvWireArrive in one host's event stream
// at or before limit — the origin of the receive-side measurement window.
func LastArrival(evs []Event, limit sim.Time) (sim.Time, bool) {
	var best sim.Time
	found := false
	for i := range evs {
		if e := &evs[i]; e.Kind == EvWireArrive && e.At <= limit && (!found || e.At > best) {
			best, found = e.At, true
		}
	}
	return best, found
}
