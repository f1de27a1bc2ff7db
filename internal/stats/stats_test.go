package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.StdDev() != 0 {
		t.Fatal("empty sample not zero")
	}
	for _, v := range []float64{4, 2, 8, 6} {
		s.Add(v)
	}
	if s.N() != 4 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 8 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	want := math.Sqrt((1 + 9 + 9 + 1) / 4.0)
	if math.Abs(s.StdDev()-want) > 1e-12 {
		t.Fatalf("StdDev = %v, want %v", s.StdDev(), want)
	}
}

// TestGrowSizesOnce: an exact sample grown for n observations takes them
// in one allocation, where filling it by appends takes one a doubling;
// a streaming sample ignores Grow.
func TestGrowSizesOnce(t *testing.T) {
	var s Sample // outside the run, so that only its storage is counted
	fill := func(grow bool) float64 {
		return testing.AllocsPerRun(20, func() {
			s = Sample{}
			if grow {
				s.Grow(250)
			}
			for i := 0; i < 250; i++ {
				s.Add(float64(i))
			}
		})
	}
	if n := fill(true); n != 1 {
		t.Errorf("a grown sample allocates %v times for 250 observations, want 1", n)
	}
	if n := fill(false); n < 5 {
		t.Errorf("an appended sample allocates %v times for 250 observations: the comparison is vacuous", n)
	}
	st := NewSample(Config{Streaming: true})
	st.Grow(1 << 20)
	if st.values != nil {
		t.Error("Grow gave a streaming sample exact storage")
	}
}

func TestPercentile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := map[float64]float64{0: 1, 50: 50, 99: 99, 100: 100}
	for p, want := range cases {
		if got := s.Percentile(p); got != want {
			t.Errorf("P%v = %v, want %v", p, got, want)
		}
	}
	var empty Sample
	if empty.Percentile(50) != 0 {
		t.Error("empty percentile not 0")
	}
}

func TestPercentileWithinRange(t *testing.T) {
	f := func(vals []float64, p uint8) bool {
		if len(vals) == 0 {
			return true
		}
		var s Sample
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			s.Add(v)
		}
		got := s.Percentile(float64(p % 101))
		return got >= s.Min() && got <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPercentDecrease(t *testing.T) {
	if got := PercentDecrease(200, 100); got != 50 {
		t.Fatalf("PercentDecrease(200,100) = %v", got)
	}
	if got := PercentDecrease(100, 122); got != -22 {
		t.Fatalf("negative decrease = %v", got)
	}
	if got := PercentDecrease(0, 5); got != 0 {
		t.Fatalf("zero baseline = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "Size", "RTT")
	tb.AddRow(4, 1021.0)
	tb.AddRow("big", "many")
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tb.NumRows())
	}
	out := tb.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "1021.0") {
		t.Fatalf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, two rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: every data line has the same width.
	if len(lines[3]) != len(lines[1]) && len(lines[4]) != len(lines[1]) {
		t.Fatalf("misaligned table:\n%s", out)
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "A")
	tb.AddRow(1)
	if strings.HasPrefix(tb.String(), "\n") {
		t.Fatal("empty title produced blank line")
	}
}
