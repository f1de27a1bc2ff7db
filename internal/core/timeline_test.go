package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/lab"
	"repro/internal/trace"
)

// TestTracedEchoDeterministic asserts the packet trace itself is a pure
// function of the configuration and seed: two independently built and
// traced labs produce byte-identical timeline JSON.
func TestTracedEchoDeterministic(t *testing.T) {
	runOnce := func() []byte {
		cfg := baseConfig()
		cfg.Seed = 42
		cfg.PacketTrace = true
		l := lab.New(cfg)
		if _, err := l.RunEcho(200, 6, 2); err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(trace.BuildTimelines(l.PacketEvents()))
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	a, b := runOnce(), runOnce()
	if !bytes.Equal(a, b) {
		t.Fatal("traced runs differ at the same seed")
	}
	if len(a) < 100 {
		t.Fatalf("suspiciously small trace: %d bytes", len(a))
	}
}

// TestPacketTraceDoesNotPerturbTiming asserts the tracing engine's core
// bargain: arming per-packet events changes no virtual timestamp. The
// same configuration with and without PacketTrace yields identical
// round-trip samples.
func TestPacketTraceDoesNotPerturbTiming(t *testing.T) {
	run := func(traced bool) []float64 {
		cfg := baseConfig()
		cfg.Seed = 3
		cfg.PacketTrace = traced
		l := lab.New(cfg)
		res, err := l.RunEcho(1400, 10, 2)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(res.RTTs))
		for i, v := range res.RTTs {
			out[i] = v.Micros()
		}
		return out
	}
	plain, traced := run(false), run(true)
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("iteration %d: untraced %g µs, traced %g µs", i, plain[i], traced[i])
		}
	}
}
