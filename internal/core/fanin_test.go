package core

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestPCBPopulationEffectLive is the small-population end of
// TestPCBPopulationEffect: the populations are real established
// connections (lab.Config.LivePCBs is the one population knob), and even
// a hundred of them must show.
func TestPCBPopulationEffectLive(t *testing.T) {
	rtts, err := PCBPopulationEffect([]int{0, 100, 400}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("live population→RTT: %v", rtts)
	if !(rtts[0] < rtts[100] && rtts[100] < rtts[400]) {
		t.Error("RTT should grow with live PCB population when prediction is off")
	}
}

// TestFanInStudyParallelBitIdentical checks the study's JSON is
// identical at any worker count for the same base seed, and that the
// hash organization beats the list at the largest live population.
func TestFanInStudyParallelBitIdentical(t *testing.T) {
	runAt := func(workers int) *FanInResult {
		o := Options{Iterations: 6, Warmup: 2, Parallel: workers, BaseSeed: 1994}
		r, err := RunFanInStudy([]int{2, 16}, 4, o)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	serial := runAt(1)
	parallel := runAt(4)
	if !reflect.DeepEqual(serial, parallel) {
		a, _ := json.Marshal(serial)
		b, _ := json.Marshal(parallel)
		t.Fatalf("parallel study diverged from serial:\n%s\nvs\n%s", a, b)
	}

	t.Log("\n" + serial.Render())
	byLabel := map[string]float64{}
	for _, o := range serial.Outcomes {
		byLabel[o.Label] = o.MeanMicros
	}
	for _, wl := range []string{"fanin", "churn"} {
		list, hash := byLabel[wl+"/16c/list"], byLabel[wl+"/16c/hash"]
		if list == 0 || hash == 0 {
			t.Fatalf("%s: missing 16-client cells in %v", wl, byLabel)
		}
		if hash >= list {
			t.Errorf("%s at 16 clients: hash (%.0f µs) did not beat list (%.0f µs)",
				wl, hash, list)
		}
	}
}
