package main

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// census runs the command with args and returns its header line, the
// total a request the header states, and every site's objects a request.
func census(t *testing.T, args ...string) (string, float64, map[string]float64) {
	t.Helper()
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	f := strings.Fields(lines[0][strings.LastIndex(lines[0], ":")+1:])
	if len(f) != 7 {
		t.Fatalf("malformed header %q", lines[0])
	}
	total, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		t.Fatalf("malformed header %q", lines[0])
	}
	sites := map[string]float64{}
	for _, l := range lines[1:] {
		f := strings.Fields(l)
		var perReq float64
		if len(f) == 2 {
			perReq, err = strconv.ParseFloat(f[0], 64)
		}
		if len(f) != 2 || err != nil {
			t.Fatalf("malformed line %q", l)
		}
		sites[f[1]] = perReq
	}
	return lines[0], total, sites
}

// TestCensusNamesConnectionSites runs the census on a small fat tree and
// checks what it exists to show: the total a request, and a connection
// as one allocation an end — tcp.(*Stack).newConn at exactly two a
// request, and every other connection or socket site far below one (the
// loop's spare output frame is made once per overlap it cannot serve).
func TestCensusNamesConnectionSites(t *testing.T) {
	header, _, sites := census(t, "-hosts", "33")
	if !strings.HasPrefix(header, "32 requests on a 33-host fat tree: ") {
		t.Fatalf("header %q", header)
	}
	if n, ok := sites["tcp.(*Stack).newConn"]; !ok || n != 2 {
		t.Errorf("newConn allocates %v a request (listed: %v), want 2: one Conn an end", n, ok)
	}
	for site, n := range sites {
		if (strings.HasPrefix(site, "tcp.(*Conn)") || strings.HasPrefix(site, "sock.")) && n >= 0.25 {
			t.Errorf("%s allocates %v a request: connection state outside the Conn", site, n)
		}
	}
}

// TestIdleCensus runs the idle shape on the fan-in's 1,001-host fat tree
// and checks what a topology costs to exist: a host is two allocations
// (lab.buildHost: the Host, with its kernel, stacks and their service
// processes, and its link block) and a switch port, and nothing a host
// builds allocates on its own account — no stack or driver constructor,
// no process start, no closure per driver. What remains is the fabric's
// per-leaf state — the switch, its port list, the two trunk ports and
// their VCI allocators, about a tenth of a host at 64 hosts a leaf — and
// the build's own slices. Sixteen a host before hosts were built in place.
func TestIdleCensus(t *testing.T) {
	header, total, sites := census(t, "-shape", "idle")
	if !strings.HasPrefix(header, "1001 hosts of an idle 1001-host fat tree: ") {
		t.Fatalf("header %q", header)
	}
	if total > 3.25 {
		t.Errorf("%v allocations an idle host, want at most 3.25", total)
	}
	if n := sites["lab.buildHost"]; n != 2 {
		t.Errorf("lab.buildHost allocates %v a host, want 2: the Host and its link block", n)
	}
	if n := sites["atm.(*Switch).newPort"]; n < 1 || n > 1.05 {
		t.Errorf("newPort allocates %v a host, want 1: the port, and a trunk's two a leaf", n)
	}
	if n := sites["atm.NewFabric"]; n > 0.05 {
		t.Errorf("NewFabric allocates %v a host, want its own few tables only", n)
	}
	for site, n := range sites {
		for _, p := range []string{"kern.", "ip.", "tcp.", "udp.", "atm.NewAdapter", "atm.NewDriver", "atm.(*Driver)", "atm.(*Adapter)", "sim.(*Env).Spawn"} {
			if strings.HasPrefix(site, p) && n >= 0.01 {
				t.Errorf("%s allocates %v an idle host: host state outside the host's two blocks", site, n)
			}
		}
	}
}

// TestLoadedCensus runs the loaded shape on a 9-host hub and checks that
// a loaded request costs what its messages must: rudp's two copies of
// each message, the sender's retained one and the receiver's delivered
// one — two messages an rudp request, so about one of each a request
// over a grid that is half rudp. udp allocates nothing: its datagrams,
// acks included, are arena checkouts. No other site reaches a quarter of
// an allocation a request — not a cell the reassembler rejects, a DRR
// rotation, an rudp frame or ack, or an overlapping udp or ip output.
func TestLoadedCensus(t *testing.T) {
	header, total, sites := census(t, "-shape", "loaded", "-hosts", "9")
	if !strings.HasPrefix(header, "1536 requests in 6 loaded trials on a 9-host hub: ") {
		t.Fatalf("header %q", header)
	}
	if total > 4.5 {
		t.Errorf("%v allocations a loaded request, want at most 4.5", total)
	}
	for site, n := range sites {
		switch {
		// The retained copy, and the delivered one (keep is inlined into
		// deliver except under -race).
		case site == "rudp.(*SendOp).Step", site == "rudp.(*Conn).deliver", site == "rudp.keep":
			if n > 1.25 {
				t.Errorf("%s allocates %v a request, want at most 1.25", site, n)
			}
		case strings.HasPrefix(site, "udp."):
			if n >= 0.1 {
				t.Errorf("%s allocates %v a request, want less than 0.1", site, n)
			}
		default:
			if n >= 0.25 {
				t.Errorf("%s allocates %v a request, want less than 0.25", site, n)
			}
		}
	}
	// udp_input grows a busy server port's queue to its high-water mark
	// once a testbed; a copy a datagram would read about two.
	if n := sites["udp.(*inputOp).Step"]; n >= 0.01 {
		t.Errorf("udp_input allocates %v a request: it should queue the chain, not copy it", n)
	}
}

// TestEchoCensus runs the echo shape — two replicas of echo-small's
// grid, whose UDP cells are a fifth of the round trips — and bounds
// every udp site below 0.01 a round trip: a datagram is copied out into
// an arena checkout the receiver releases, so no udp site allocates per
// datagram.
func TestEchoCensus(t *testing.T) {
	header, total, sites := census(t, "-shape", "echo")
	if !strings.HasPrefix(header, "10000 requests in 40 echo trials (2 replicas of echo-small's grid): ") {
		t.Fatalf("header %q", header)
	}
	if total > 0.15 {
		t.Errorf("%v allocations an echo round trip, want at most 0.15", total)
	}
	for site, n := range sites {
		if strings.HasPrefix(site, "udp.") && n >= 0.01 {
			t.Errorf("%s allocates %v a round trip, want less than 0.01", site, n)
		}
	}
}
