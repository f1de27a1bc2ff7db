package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

func testID(seq uint32) PacketID {
	return PacketID{
		Src: 0xc0a80101, Dst: 0xc0a80102,
		SrcPort: 1025, DstPort: 7, Seq: seq,
	}
}

func TestPacketIDString(t *testing.T) {
	got := testID(64001).String()
	want := "192.168.1.1:1025>192.168.1.2:7#64001"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if !(PacketID{}).IsZero() {
		t.Fatal("zero PacketID not IsZero")
	}
	if testID(1).IsZero() {
		t.Fatal("non-zero PacketID IsZero")
	}
}

// TestEventsRequireBothEnables: arming is the recorder's one gate. A
// recorder keeps nothing before EnablePackets, every event of every kind
// after it, and nothing again once DisablePackets disarms it.
func TestEventsRequireBothEnables(t *testing.T) {
	var r Recorder
	evs := []Event{
		{Kind: EvTCPOutput, At: 10, ID: testID(1)},
		{Kind: EvIPDequeue, At: 5, Dur: 7, ID: testID(1)},
		cpu(LayerIPTx, 1, 12, 20),
		{Kind: EvWireArrive, At: 30},
	}
	record := func() {
		for _, e := range evs {
			r.Event(e)
		}
	}
	record()
	if len(r.Events()) != 0 {
		t.Fatalf("events recorded without EnablePackets: %d", len(r.Events()))
	}
	r.EnablePackets()
	record()
	if got := r.Events(); len(got) != len(evs) {
		t.Fatalf("armed recorder kept %d of %d events", len(got), len(evs))
	}
	for i, e := range r.Events() {
		if e != evs[i] {
			t.Fatalf("event %d = %v, want %v", i, e, evs[i])
		}
	}
	r.DisablePackets()
	record()
	if len(r.Events()) != 0 {
		t.Fatalf("disarmed recorder kept %d events", len(r.Events()))
	}
}

// TestMergeEventsClockTies pins the tie-breaking contract: events with
// identical virtual timestamps order by host position and then by
// emission order, never by map iteration or scheduling accidents. Clock
// ties are routine in the simulation (instant events share the
// timestamp of the charge that preceded them), so a traced sweep's
// byte-identical-JSON guarantee rests on this ordering.
func TestMergeEventsClockTies(t *testing.T) {
	mk := func() (*Recorder, *Recorder) {
		a, b := &Recorder{}, &Recorder{}
		a.EnablePackets()
		b.EnablePackets()
		// Same instant on both hosts, multiple events each.
		a.Event(Event{Kind: EvTCPOutput, At: 100, ID: testID(1)})
		a.Event(Event{Kind: EvIPSend, At: 100, ID: testID(1)})
		b.Event(Event{Kind: EvWireArrive, At: 100, ID: testID(1)})
		// An out-of-order emission (backdated, like EvIPDequeue).
		b.Event(Event{Kind: EvIPDequeue, At: 50, ID: testID(1)})
		return a, b
	}
	a, b := mk()
	got := EventsFrom([]string{"client", "server"}, []*Recorder{a, b}, 0)
	wantKinds := []EventKind{EvIPDequeue, EvTCPOutput, EvIPSend, EvWireArrive}
	wantHosts := []string{"server", "client", "client", "server"}
	if len(got) != len(wantKinds) {
		t.Fatalf("merged %d events, want %d", len(got), len(wantKinds))
	}
	for i := range got {
		if got[i].Kind != wantKinds[i] || got[i].Host != wantHosts[i] {
			t.Fatalf("event %d = %s on %s, want %s on %s",
				i, got[i].Kind, got[i].Host, wantKinds[i], wantHosts[i])
		}
	}
	// Deterministic: merging fresh but identical recorders yields
	// byte-identical JSON.
	a2, b2 := mk()
	again := EventsFrom([]string{"client", "server"}, []*Recorder{a2, b2}, 0)
	j1, _ := json.Marshal(got)
	j2, _ := json.Marshal(again)
	if !bytes.Equal(j1, j2) {
		t.Fatal("merged streams differ across identical runs")
	}
}

func TestBuildTimelinesGroupsByIdentity(t *testing.T) {
	evs := []HostEvent{
		{Host: "client", Event: Event{Kind: EvTCPOutput, At: 10, Dur: 5, ID: testID(1)}},
		{Host: "client", Event: Event{Kind: EvWireDepart, At: 20, ID: testID(1)}},
		{Host: "server", Event: Event{Kind: EvWireArrive, At: 30, ID: testID(1)}},
		{Host: "server", Event: Event{Kind: EvTCPInput, At: 35, ID: testID(1)}},
		{Host: "client", Event: Event{Kind: EvTCPOutput, At: 40, ID: testID(2)}},
		{Host: "client", Event: Event{Kind: EvCPU, Layer: LayerWakeup, At: 50, Dur: 3}}, // no ID
	}
	set := BuildTimelines(evs)
	if len(set.Packets) != 2 {
		t.Fatalf("packets = %d, want 2", len(set.Packets))
	}
	if len(set.Unattributed) != 1 {
		t.Fatalf("unattributed = %d, want 1", len(set.Unattributed))
	}
	p := set.Packets[0]
	if p.ID != testID(1) || len(p.Events) != 4 {
		t.Fatalf("first packet %v with %d events", p.ID, len(p.Events))
	}
	root := p.Spans
	if root.StartNS != 10 || root.EndNS != 35 {
		t.Fatalf("root covers [%d,%d], want [10,35]", root.StartNS, root.EndNS)
	}
	// client visit, wire flight, server visit.
	if len(root.Children) != 3 {
		t.Fatalf("root children = %d, want 3", len(root.Children))
	}
	if root.Children[0].Host != "client" || root.Children[2].Host != "server" {
		t.Fatalf("host order %q,%q", root.Children[0].Host, root.Children[2].Host)
	}
	wire := root.Children[1]
	if wire.Name != "wire" || wire.StartNS != 20 || wire.EndNS != 30 {
		t.Fatalf("wire span %q [%d,%d], want wire [20,30]", wire.Name, wire.StartNS, wire.EndNS)
	}
	// Children stay inside the root.
	for _, c := range root.Children {
		if c.StartNS < root.StartNS || c.EndNS > root.EndNS {
			t.Fatalf("child [%d,%d] escapes root [%d,%d]",
				c.StartNS, c.EndNS, root.StartNS, root.EndNS)
		}
	}
}

// TestBreakdownFromEventsMatchesRecorderBreakdown: the breakdown of one
// host's slice of a merged multi-host stream is the breakdown of that
// host's own recorder, and both are the charges made to it, each clipped
// to the window — merging hosts adds and loses nothing.
func TestBreakdownFromEventsMatchesRecorderBreakdown(t *testing.T) {
	charges := []struct {
		layer      Layer
		start, end sim.Time
	}{
		{LayerUserTx, 0, 100},
		{LayerIPTx, 60, 80},
		{LayerATMTx, 140, 200},
		{LayerWakeup, 300, 400},
	}
	h, other := recording(), recording()
	want := make(map[Layer]sim.Time)
	for _, c := range charges {
		h.Event(cpu(c.layer, 0, c.start, c.end))
		other.Event(cpu(c.layer, 0, c.start, c.end))
		if lo, hi := max(c.start, 50), min(c.end, 150); hi > lo {
			want[c.layer] += hi - lo
		}
	}
	// A non-CPU event must not contribute to the breakdown.
	h.Event(Event{Kind: EvWireArrive, At: 70, ID: testID(1)})
	var hostEvs []Event
	for _, e := range EventsFrom([]string{"h", "other"}, []*Recorder{h, other}, 0) {
		if e.Host == "h" {
			hostEvs = append(hostEvs, e.Event)
		}
	}
	for name, got := range map[string]map[Layer]sim.Time{
		"recorder": BreakdownFromEvents(h.Events(), 50, 150),
		"merged":   BreakdownFromEvents(hostEvs, 50, 150),
	} {
		if len(got) != len(want) {
			t.Fatalf("%s rows = %v, want %v", name, got, want)
		}
		for layer, d := range want {
			if got[layer] != d {
				t.Fatalf("%s layer %s = %v, want %v", name, layer, got[layer], d)
			}
		}
		if _, ok := got[LayerWakeup]; ok {
			t.Fatalf("%s: outside charge included", name)
		}
	}
}

// TestLastMark: the receive-window origin is the latest frame arrival at
// or before the limit; other event kinds are not arrivals, and a stream
// with none before the limit has no origin.
func TestLastMark(t *testing.T) {
	evs := []Event{
		{Kind: EvWireArrive, At: 100, ID: testID(1)},
		{Kind: EvWireArrive, At: 300, ID: testID(2)},
		{Kind: EvDriverTx, At: 400, Dur: 10, ID: testID(3)},
		{Kind: EvWireArrive, At: 500, ID: testID(3)},
	}
	if at, ok := LastArrival(evs, 450); !ok || at != 300 {
		t.Fatalf("LastArrival = %v,%v", at, ok)
	}
	if at, ok := LastArrival(evs, 600); !ok || at != 500 {
		t.Fatalf("LastArrival = %v,%v", at, ok)
	}
	if _, ok := LastArrival(evs, 50); ok {
		t.Fatal("found an arrival before any exist")
	}
	if _, ok := LastArrival(evs[2:3], 1000); ok {
		t.Fatal("found an arrival in a stream that has none")
	}
}

func TestLastArrival(t *testing.T) {
	evs := []Event{
		{Kind: EvWireArrive, At: 100, ID: testID(1)},
		{Kind: EvWireArrive, At: 300, ID: testID(2)},
		{Kind: EvWireDepart, At: 350, ID: testID(3)},
		{Kind: EvWireArrive, At: 500, ID: testID(3)},
		{Kind: EvIPDequeue, At: 250, Dur: 10, ID: testID(3)}, // backdated: streams are not time-ordered
	}
	if at, ok := LastArrival(evs, 250); !ok || at != 100 {
		t.Fatalf("LastArrival = %v,%v, want 100,true", at, ok)
	}
	// Only arrivals count: the departure at 350 is not an origin.
	if at, ok := LastArrival(evs, 450); !ok || at != 300 {
		t.Fatalf("LastArrival = %v,%v, want 300,true", at, ok)
	}
	if at, ok := LastArrival(evs, 600); !ok || at != 500 {
		t.Fatalf("LastArrival = %v,%v, want 500,true", at, ok)
	}
	if _, ok := LastArrival(evs, 50); ok {
		t.Fatal("found arrival before any exist")
	}
}

func TestChromeTraceShape(t *testing.T) {
	evs := []HostEvent{
		{Host: "client", Event: Event{Kind: EvCPU, Layer: LayerUserTx, At: 1000, Dur: 500, ID: testID(1), Len: 8}},
		{Host: "client", Event: Event{Kind: EvWireDepart, At: 2000, ID: testID(1)}},
		{Host: "server", Event: Event{Kind: EvWireArrive, At: 3000, ID: testID(1)}},
	}
	blob, err := ChromeTrace(evs)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &f); err != nil {
		t.Fatalf("invalid trace_event JSON: %v", err)
	}
	// 3 events + 2 process_name metadata records.
	if len(f.TraceEvents) != 5 {
		t.Fatalf("traceEvents = %d, want 5", len(f.TraceEvents))
	}
	phases := map[string]int{}
	for _, e := range f.TraceEvents {
		phases[e.Ph]++
		if e.Ph == "X" && e.Dur <= 0 {
			t.Fatalf("duration event %q without dur", e.Name)
		}
	}
	if phases["M"] != 2 || phases["X"] != 1 || phases["i"] != 2 {
		t.Fatalf("phase counts %v", phases)
	}
	// Determinism: the exporter is a pure function of its input.
	again, _ := ChromeTrace(evs)
	if !bytes.Equal(blob, again) {
		t.Fatal("ChromeTrace not deterministic")
	}
}

func TestEventNegativeDurationPanics(t *testing.T) {
	var r Recorder
	r.EnablePackets()
	defer func() {
		if recover() == nil {
			t.Fatal("negative-duration event accepted")
		}
	}()
	r.Event(Event{Kind: EvCPU, At: 100, Dur: -1})
}
