package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lowerBetter := metricDef{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.10}
	higherBetter := metricDef{Name: "rate", Unit: "1/s", Better: higher, Bound: 0.10}
	tight := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"within bound", lowerBetter, tight, []float64{1.05, 1.04, 1.06, 1.05, 1.05}, verdictSame},
		{"slower past bound", lowerBetter, tight, []float64{1.20, 1.21, 1.19, 1.20, 1.22}, verdictWorse},
		{"faster past bound", lowerBetter, tight, []float64{0.80, 0.81, 0.79, 0.80, 0.82}, verdictBetter},
		{"higher is better", higherBetter, tight, []float64{1.20, 1.21, 1.19, 1.20, 1.22}, verdictBetter},
		{"noisy and overlapping", lowerBetter, []float64{1.0, 1.3, 0.8, 1.2, 0.9}, []float64{1.1, 1.4, 0.9, 1.0, 1.2}, verdictUnresolved},
		{"noisy but every B beats every A", lowerBetter, []float64{1.0, 1.3, 0.8, 1.2, 0.9}, []float64{0.5, 0.7, 0.4, 0.6, 0.5}, verdictBetter},
		{"noisy but every B loses to every A", lowerBetter, []float64{1.0, 1.3, 0.8, 1.2, 0.9}, []float64{1.5, 1.9, 1.4, 1.6, 1.5}, verdictWorse},
		{"exact and equal", lowerBetter, []float64{7, 7, 7}, []float64{7, 7, 7}, verdictSame},
	} {
		if got, _, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(v, n=4) returns, the method the acceptance rule
// for this benchmark is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, 20, 60},
	} {
		q1, q3 := quartiles(c.v)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCompareLedgers(t *testing.T) {
	mk := func(wall float64, digest string) *ledger {
		l := &ledger{Meta: newMeta(1), Workloads: map[string]*report{}}
		for _, name := range workloadNames {
			r := newReport(name)
			r.Digest, r.Attempted = digest, 100
			for _, d := range endToEnd {
				r.Samples[d.Name] = []float64{wall, wall * 1.01, wall * 0.99}
			}
			l.Workloads[name] = r
		}
		return l
	}
	dir := t.TempDir()
	write := func(name string, l *ledger) string {
		b, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.json", mk(1.0, "d1"))
	var out bytes.Buffer
	if err := compareLedgers(&out, a, write("same.json", mk(1.02, "d1"))); err != nil {
		t.Errorf("runs within every bound compared as a failure: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareLedgers(&out, a, write("slow.json", mk(1.5, "d1"))); err == nil || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a 50%% slowdown was not reported as worse: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareLedgers(&out, a, write("drift.json", mk(1.0, "d2"))); err == nil || !strings.Contains(out.String(), "DIFFERENT") {
		t.Errorf("a digest change at the same seed was not reported: %v\n%s", err, out.String())
	}
}
