package main

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestCensusNamesConnectionSites runs the census on a small fat tree and
// checks what it exists to show: the total a request, and a connection
// as one allocation an end — tcp.(*Stack).newConn at exactly two a
// request, and every other connection or socket site far below one (the
// loop's spare output frame is made once per overlap it cannot serve).
func TestCensusNamesConnectionSites(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	var out strings.Builder
	if err := run([]string{"-hosts", "33"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if !strings.HasPrefix(lines[0], "32 requests on a 33-host fat tree: ") {
		t.Fatalf("header %q", lines[0])
	}
	newConn := false
	for _, l := range lines[1:] {
		f := strings.Fields(l)
		var perReq float64
		var err error
		if len(f) == 2 {
			perReq, err = strconv.ParseFloat(f[0], 64)
		}
		if len(f) != 2 || err != nil {
			t.Fatalf("malformed line %q", l)
		}
		switch site := f[1]; {
		case site == "tcp.(*Stack).newConn":
			newConn = true
			if perReq != 2 {
				t.Errorf("newConn allocates %v a request, want 2: one Conn an end", perReq)
			}
		case (strings.HasPrefix(site, "tcp.(*Conn)") || strings.HasPrefix(site, "sock.")) && perReq >= 0.25:
			t.Errorf("%s allocates %v a request: connection state outside the Conn", site, perReq)
		}
	}
	if !newConn {
		t.Errorf("no newConn line in the census:\n%s", out.String())
	}
}
