package trace

import (
	"testing"

	"repro/internal/sim"
)

func TestDisabledRecorderIsNoop(t *testing.T) {
	var r Recorder
	r.Span(LayerUserTx, 0, 100)
	r.Mark("m", 50)
	if len(r.Spans()) != 0 || len(r.marks) != 0 {
		t.Fatal("disabled recorder stored records")
	}
	if r.Enabled() {
		t.Fatal("zero value enabled")
	}
	var nilR *Recorder
	if nilR.Enabled() {
		t.Fatal("nil recorder enabled")
	}
}

func TestEnableDisableReset(t *testing.T) {
	var r Recorder
	r.Enable()
	r.Span(LayerIPTx, 10, 20)
	r.Disable()
	r.Span(LayerIPTx, 20, 30) // dropped
	if len(r.Spans()) != 1 {
		t.Fatalf("spans = %d", len(r.Spans()))
	}
	r.Reset()
	if len(r.Spans()) != 0 {
		t.Fatal("Reset kept spans")
	}
}

func TestInvertedSpanPanics(t *testing.T) {
	var r Recorder
	r.Enable()
	defer func() {
		if recover() == nil {
			t.Fatal("inverted span accepted")
		}
	}()
	r.Span(LayerIPTx, 100, 50)
}

func TestBreakdownClipsToWindow(t *testing.T) {
	var r Recorder
	r.Enable()
	r.Span(LayerUserTx, 0, 100)   // 50 inside
	r.Span(LayerIPTx, 60, 80)     // fully inside
	r.Span(LayerATMTx, 140, 200)  // 10 inside
	r.Span(LayerWakeup, 300, 400) // outside
	b := r.Breakdown(50, 150)
	if b[LayerUserTx] != 50 || b[LayerIPTx] != 20 || b[LayerATMTx] != 10 {
		t.Fatalf("breakdown %v", b)
	}
	if _, ok := b[LayerWakeup]; ok {
		t.Fatal("outside span included")
	}
}

func TestBreakdownSumsMultipleSpans(t *testing.T) {
	var r Recorder
	r.Enable()
	for i := sim.Time(0); i < 5; i++ {
		r.Span(LayerIPQ, i*100, i*100+10)
	}
	b := r.Breakdown(0, 1000)
	if b[LayerIPQ] != 50 {
		t.Fatalf("IPQ sum = %v", b[LayerIPQ])
	}
}

// TestAbuttingSpansMergeExactly: a span that starts where the previous
// one ended on the same layer extends it, and no window can tell — for
// every window, including ones that cut through a merged span, Breakdown
// accounts for exactly what the pieces would have.
func TestAbuttingSpansMergeExactly(t *testing.T) {
	pieces := []Span{
		{LayerATMRx, 0, 10}, {LayerATMRx, 10, 20}, {LayerATMRx, 20, 30}, // one run
		{LayerIPRx, 30, 40},  // abuts, other layer: its own span
		{LayerATMRx, 40, 50}, // abuts IPRx, not the ATMRx run
		{LayerATMRx, 55, 60}, // same layer after a gap: its own span
		{LayerATMRx, 60, 60}, // zero-length, abutting
		{LayerATMRx, 60, 70},
		{LayerIPRx, 35, 45}, // overlaps earlier time, as another CPU's charge may
	}
	var r Recorder
	r.Enable()
	for _, p := range pieces {
		r.Span(p.Layer, p.Start, p.End)
	}
	want := []Span{
		{LayerATMRx, 0, 30}, {LayerIPRx, 30, 40}, {LayerATMRx, 40, 50},
		{LayerATMRx, 55, 70}, {LayerIPRx, 35, 45},
	}
	got := r.Spans()
	if len(got) != len(want) {
		t.Fatalf("recorded %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("span %d = %v, want %v", i, got[i], want[i])
		}
	}
	for start := sim.Time(-5); start <= 75; start++ {
		for end := start; end <= 75; end++ {
			unmerged := make(map[Layer]sim.Time)
			for _, p := range pieces {
				lo, hi := max(p.Start, start), min(p.End, end)
				if hi > lo {
					unmerged[p.Layer] += hi - lo
				}
			}
			b := r.Breakdown(start, end)
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

func TestLastMark(t *testing.T) {
	var r Recorder
	r.Enable()
	r.Mark(MarkFrameArrival, 100)
	r.Mark(MarkFrameArrival, 300)
	r.Mark("other", 400)
	r.Mark(MarkFrameArrival, 500)
	if at, ok := r.LastMark(MarkFrameArrival, 450); !ok || at != 300 {
		t.Fatalf("LastMark = %v,%v", at, ok)
	}
	if at, ok := r.LastMark(MarkFrameArrival, 600); !ok || at != 500 {
		t.Fatalf("LastMark = %v,%v", at, ok)
	}
	if _, ok := r.LastMark(MarkFrameArrival, 50); ok {
		t.Fatal("found a mark before any exist")
	}
	if _, ok := r.LastMark("absent", 1000); ok {
		t.Fatal("found a mark that was never recorded")
	}
}

func TestSpanDuration(t *testing.T) {
	s := Span{Layer: LayerIPTx, Start: 10, End: 35}
	if s.Duration() != 25 {
		t.Fatalf("Duration = %v", s.Duration())
	}
}
