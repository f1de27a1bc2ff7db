package trace

import (
	"sort"
	"testing"

	"repro/internal/sim"
)

// recording returns a recorder that keeps events.
func recording() *Recorder {
	r := &Recorder{}
	r.EnablePackets()
	return r
}

// cpu is an EvCPU event on layer for packet seq (0: no packet) over
// [start, end].
func cpu(layer Layer, seq uint32, start, end sim.Time) Event {
	e := Event{Kind: EvCPU, Layer: layer, At: start, Dur: end - start}
	if seq != 0 {
		e.ID = testID(seq)
	}
	return e
}

// TestDisabledRecorderIsNoop: a disarmed recorder, zero or nil, keeps
// nothing and holds no buffer.
func TestDisabledRecorderIsNoop(t *testing.T) {
	var r Recorder
	r.Event(cpu(LayerUserTx, 0, 0, 100))
	r.Event(Event{Kind: EvWireArrive, At: 100, ID: testID(1)})
	if r.PacketsEnabled() || len(r.Events()) != 0 || cap(r.Events()) != 0 {
		t.Fatalf("zero recorder armed %v, kept %d events in a %d-event buffer",
			r.PacketsEnabled(), len(r.Events()), cap(r.Events()))
	}
	var nilR *Recorder
	if nilR.PacketsEnabled() {
		t.Fatal("nil recorder armed")
	}
}

// TestEnableDisableReset: EnablePackets gives the recorder a first
// buffer, Reset empties it but keeps its storage for the next run (and
// the recorder armed), and DisablePackets lets it go.
func TestEnableDisableReset(t *testing.T) {
	r := recording()
	if cap(r.Events()) == 0 {
		t.Fatal("armed recorder has no buffer")
	}
	for i := sim.Time(0); i < 3000; i++ { // past the first size
		r.Event(cpu(LayerIPTx, uint32(i%2)+1, 10*i, 10*i+5))
	}
	kept := cap(r.Events())
	r.Reset()
	if len(r.Events()) != 0 {
		t.Fatal("Reset kept events")
	}
	if cap(r.Events()) != kept {
		t.Fatalf("buffer capacity %d after Reset, want %d", cap(r.Events()), kept)
	}
	if r.EnablePackets(); cap(r.Events()) != kept {
		t.Fatalf("re-arming replaced the %d-event buffer with %d", kept, cap(r.Events()))
	}
	if r.Event(cpu(LayerIPTx, 0, 0, 1)); len(r.Events()) != 1 {
		t.Fatal("recorder disarmed by Reset")
	}
	if r.DisablePackets(); cap(r.Events()) != 0 {
		t.Fatalf("disarmed recorder holds a %d-event buffer", cap(r.Events()))
	}
}

// TestInvertedSpanPanics: a CPU charge that ends before it starts is a
// broken cost charge, refused even where it would merge into the
// previous event.
func TestInvertedSpanPanics(t *testing.T) {
	r := recording()
	r.Event(cpu(LayerIPTx, 0, 0, 100))
	defer func() {
		if recover() == nil {
			t.Fatal("inverted charge accepted")
		}
	}()
	r.Event(Event{Kind: EvCPU, Layer: LayerIPTx, At: 100, Dur: -50})
}

func TestBreakdownClipsToWindow(t *testing.T) {
	r := recording()
	r.Event(cpu(LayerUserTx, 0, 0, 100))   // 50 inside
	r.Event(cpu(LayerIPTx, 0, 60, 80))     // fully inside
	r.Event(cpu(LayerATMTx, 0, 140, 200))  // 10 inside
	r.Event(cpu(LayerWakeup, 0, 300, 400)) // outside
	// A non-CPU event contributes nothing, even inside the window.
	r.Event(Event{Kind: EvDriverTx, At: 70, Dur: 20, ID: testID(1)})
	b := BreakdownFromEvents(r.Events(), 50, 150)
	want := map[Layer]sim.Time{LayerUserTx: 50, LayerIPTx: 20, LayerATMTx: 10}
	if len(b) != len(want) {
		t.Fatalf("breakdown %v, want %v", b, want)
	}
	for l, d := range want {
		if b[l] != d {
			t.Fatalf("breakdown %v, want %v", b, want)
		}
	}
}

func TestBreakdownSumsMultipleSpans(t *testing.T) {
	r := recording()
	for i := sim.Time(0); i < 5; i++ {
		r.Event(cpu(LayerIPQ, 0, i*100, i*100+10))
	}
	b := BreakdownFromEvents(r.Events(), 0, 1000)
	if b[LayerIPQ] != 50 {
		t.Fatalf("IPQ sum = %v", b[LayerIPQ])
	}
}

// TestAbuttingSpansMergeExactly: an EvCPU event that starts where the
// previous recorded event ended extends it when that event is EvCPU on
// the same layer for the same packet; a gap, another layer, another
// packet or an intervening non-CPU event keeps the records apart. No
// window can tell: for every window, including ones that cut through a
// merged event, BreakdownFromEvents accounts for exactly what the pieces
// would have.
func TestAbuttingSpansMergeExactly(t *testing.T) {
	pieces := []Event{
		cpu(LayerATMRx, 1, 0, 10), cpu(LayerATMRx, 1, 10, 20), cpu(LayerATMRx, 1, 20, 30), // one run
		cpu(LayerIPRx, 1, 30, 40),  // abuts, other layer: its own event
		cpu(LayerATMRx, 1, 40, 50), // abuts IPRx, not the ATMRx run
		cpu(LayerATMRx, 1, 55, 60), // same layer after a gap: its own event
		cpu(LayerATMRx, 1, 60, 60), // zero-length, abutting
		cpu(LayerATMRx, 1, 60, 70),
		cpu(LayerATMRx, 2, 70, 75), // abuts, other packet
		{Kind: EvIPEnqueue, At: 75, ID: testID(2)},
		cpu(LayerATMRx, 2, 75, 80), // abuts across a non-CPU event
		cpu(LayerIPRx, 0, 35, 45),  // overlaps earlier time, as another CPU's charge may
	}
	r := recording()
	for _, p := range pieces {
		r.Event(p)
	}
	want := []Event{
		cpu(LayerATMRx, 1, 0, 30), cpu(LayerIPRx, 1, 30, 40), cpu(LayerATMRx, 1, 40, 50),
		cpu(LayerATMRx, 1, 55, 70), cpu(LayerATMRx, 2, 70, 75),
		{Kind: EvIPEnqueue, At: 75, ID: testID(2)},
		cpu(LayerATMRx, 2, 75, 80), cpu(LayerIPRx, 0, 35, 45),
	}
	got := r.Events()
	if len(got) != len(want) {
		t.Fatalf("recorded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, got[i], want[i])
		}
	}
	for start := sim.Time(-5); start <= 85; start++ {
		for end := start; end <= 85; end++ {
			unmerged := make(map[Layer]sim.Time)
			for _, p := range pieces {
				lo, hi := max(p.At, start), min(p.End(), end)
				if p.Kind == EvCPU && hi > lo {
					unmerged[p.Layer] += hi - lo
				}
			}
			b := BreakdownFromEvents(got, start, end)
			if len(b) != len(unmerged) {
				t.Fatalf("window [%d,%d]: breakdown %v, unmerged %v", start, end, b, unmerged)
			}
			for l, d := range unmerged {
				if b[l] != d {
					t.Fatalf("window [%d,%d] %s: breakdown %d, unmerged %d", start, end, l, b[l], d)
				}
			}
		}
	}
}

func TestSpanDuration(t *testing.T) {
	e := cpu(LayerIPTx, 0, 10, 35)
	if e.End() != 35 {
		t.Fatalf("End = %v", e.End())
	}
	if i := (Event{Kind: EvWireArrive, At: 10}); i.End() != 10 {
		t.Fatalf("instant event ends at %v", i.End())
	}
}

// FuzzCPUEventMerge records arbitrary charges through Recorder.Event and
// requires BreakdownFromEvents over the merged stream to equal a plain
// clip-and-sum over the raw charges, for the fuzzed window. Each 3-byte
// record is one charge: the first byte picks the layer (of three, or a
// non-CPU event in the fourth case), the packet (none or one of two) and
// whether the charge starts where the previous record ended — the case
// that merges — or at the second byte's offset; the third byte is the
// duration. No two consecutive records left in the stream may meet the
// merge rule: merging stops only where the rule says it must.
func FuzzCPUEventMerge(f *testing.F) {
	f.Add(int16(0), int16(100), []byte{0x10, 0, 10, 0x10, 0, 10, 0x11, 0, 10, 0x03, 0, 0, 0x10, 0, 5})
	f.Add(int16(15), int16(25), []byte{0x14, 0, 10, 0x18, 0, 10, 0x10, 0, 0, 0x10, 0, 10})
	f.Add(int16(-20), int16(300), []byte{0x00, 200, 30, 0x10, 0, 30, 0x01, 10, 255, 0x12, 0, 1})
	layers := [...]Layer{LayerATMRx, LayerIPRx, LayerATMTx}
	f.Fuzz(func(t *testing.T, start, end int16, data []byte) {
		r := recording()
		var raw []Event
		var prevEnd sim.Time
		for ; len(data) >= 3; data = data[3:] {
			e := Event{At: sim.Time(data[1]) - 64, Dur: sim.Time(data[2])}
			if data[0]&0x10 != 0 {
				e.At = prevEnd
			}
			if seq := uint32(data[0]>>2&3) % 3; seq != 0 {
				e.ID = testID(seq)
			}
			if l := data[0] & 3; l < 3 {
				e.Kind, e.Layer = EvCPU, layers[l]
			} else {
				e.Kind, e.Dur = EvIPEnqueue, 0
			}
			r.Event(e)
			raw = append(raw, e)
			prevEnd = e.End()
		}
		lo, hi := sim.Time(start), sim.Time(end)
		want := make(map[Layer]sim.Time)
		for _, e := range raw {
			if a, b := max(e.At, lo), min(e.End(), hi); e.Kind == EvCPU && b > a {
				want[e.Layer] += b - a
			}
		}
		got := BreakdownFromEvents(r.Events(), lo, hi)
		if len(got) != len(want) {
			t.Fatalf("window [%d,%d]: merged %v, raw %v", lo, hi, got, want)
		}
		for l, d := range want {
			if got[l] != d {
				t.Fatalf("window [%d,%d] %s: merged %d, raw %d", lo, hi, l, got[l], d)
			}
		}
		evs := r.Events()
		for i := 1; i < len(evs); i++ {
			a, b := evs[i-1], evs[i]
			if a.Kind == EvCPU && b.Kind == EvCPU && a.Layer == b.Layer && a.ID == b.ID && a.End() == b.At {
				t.Fatalf("events %d and %d abut and were not merged: %v, %v", i-1, i, a, b)
			}
		}
	})
}

// FuzzEventsFrom records arbitrary per-host streams through
// Recorder.Event and cuts them at a fuzzed start with EventsFrom, against
// a reference model: each host's recorded stream cut by hand (an event
// kept as it is when At >= start, an EvCPU charge that straddles start
// kept from start on, anything else dropped), concatenated in host order
// and stably sorted by time. Independently of the model, no output event
// starts before start, non-CPU events are kept exactly when At >= start
// (in time order),
// and each (host, layer) CPU sum equals BreakdownFromEvents over
// [start, ∞) of the raw charges. Each 3-byte record is one event: the
// first byte picks the host (of three), the layer (of three) or a non-CPU
// event — a span or an instant, by the top bit — the packet (none or one
// of two), and whether the event starts where the host's previous record
// ended (the case that merges) or at the second byte's offset; the third
// byte is the duration.
func FuzzEventsFrom(f *testing.F) {
	f.Add(int16(15), []byte{0x10, 0, 10, 0x30, 0, 10, 0x11, 0, 10, 0x83, 0, 9, 0x50, 0, 5, 0x03, 90, 0})
	f.Add(int16(-20), []byte{0x00, 10, 30, 0x10, 0, 30, 0x21, 10, 255, 0x83, 70, 40, 0x12, 0, 1})
	f.Add(int16(64), []byte{0x14, 0, 10, 0x18, 0, 10, 0x30, 0, 0, 0x10, 0, 10, 0x43, 64, 0})
	layers := [...]Layer{LayerATMRx, LayerIPRx, LayerATMTx}
	hosts := []string{"h0", "h1", "h2"}
	f.Fuzz(func(t *testing.T, start16 int16, data []byte) {
		start := sim.Time(start16)
		recs := []*Recorder{recording(), recording(), recording()}
		raw := make([][]Event, len(recs))
		var prevEnd [3]sim.Time
		for ; len(data) >= 3; data = data[3:] {
			h := int(data[0]>>5&3) % 3
			e := Event{At: sim.Time(data[1]) - 64, Dur: sim.Time(data[2])}
			if data[0]&0x10 != 0 {
				e.At = prevEnd[h]
			}
			if seq := uint32(data[0]>>2&3) % 3; seq != 0 {
				e.ID = testID(seq)
			}
			switch l := data[0] & 3; {
			case l < 3:
				e.Kind, e.Layer = EvCPU, layers[l]
			case data[0]&0x80 != 0:
				e.Kind = EvIPDequeue // a span
			default:
				e.Kind, e.Dur = EvWireArrive, 0
			}
			recs[h].Event(e)
			raw[h] = append(raw[h], e)
			prevEnd[h] = e.End()
		}
		got := EventsFrom(hosts, recs, start)

		var want []HostEvent
		for h, r := range recs {
			for _, e := range r.Events() {
				switch {
				case e.At >= start:
				case e.Kind == EvCPU && e.End() > start:
					e.At, e.Dur = start, e.End()-start
				default:
					continue
				}
				want = append(want, HostEvent{Host: hosts[h], Event: e})
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].At < want[j].At })
		if len(got) != len(want) {
			t.Fatalf("start %d: %d events, the model %d", start, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("start %d: event %d = %+v, the model %+v", start, i, got[i], want[i])
			}
		}

		for h := range recs {
			var nonCPU []Event
			for _, e := range raw[h] {
				if e.Kind != EvCPU && e.At >= start {
					nonCPU = append(nonCPU, e)
				}
			}
			sort.SliceStable(nonCPU, func(i, j int) bool { return nonCPU[i].At < nonCPU[j].At })
			sums := make(map[Layer]sim.Time)
			k := 0
			for _, e := range got {
				switch {
				case e.At < start:
					t.Fatalf("start %d: %v on %s starts before it", start, e.Event, e.Host)
				case e.Host != hosts[h]:
				case e.Kind == EvCPU:
					sums[e.Layer] += e.Dur
				case k >= len(nonCPU) || e.Event != nonCPU[k]:
					t.Fatalf("start %d: %s kept %v, want the raw non-CPU events from start %v", start, e.Host, e.Event, nonCPU)
				default:
					k++
				}
			}
			if k != len(nonCPU) {
				t.Fatalf("start %d: %s kept %d of its %d non-CPU events from start", start, hosts[h], k, len(nonCPU))
			}
			for l, d := range BreakdownFromEvents(raw[h], start, sim.MaxTime) {
				if sums[l] != d {
					t.Fatalf("start %d: %s %s = %d, raw charges %d", start, hosts[h], l, sums[l], d)
				}
				delete(sums, l)
			}
			for l, d := range sums {
				if d != 0 {
					t.Fatalf("start %d: %s %s = %d, raw charges none", start, hosts[h], l, d)
				}
			}
		}
	})
}
