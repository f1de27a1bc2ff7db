package lab

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/atm"
	"repro/internal/cost"
	"repro/internal/sim"
)

// segmentFor returns the cells of an n-byte datagram on the given VCI.
func segmentFor(vci uint16, n int) []atm.Cell {
	seg := atm.Segmenter{VCI: vci}
	return seg.Segment(make([]byte, n))
}

// arenaState sums, over every loop of the lab, the buffers checked out
// of the arena, and over every host the receive channels that are
// part-way through a frame — the only thing that may hold one on a
// drained loop.
func arenaState(l *Lab) (out, reassembling int) {
	for _, sh := range l.Cluster().Shards {
		out += sh.Env.Arena().Outstanding()
	}
	for _, h := range l.Hosts {
		if h.ATMDriver != nil {
			reassembling += h.ATMDriver.Reassembling()
		}
	}
	return out, reassembling
}

// checkEtherLedger is Ethernet's conservation law on a drained lab (a
// no-op on ATM): every frame a station put on the wire was received or
// dropped for exactly one counted cause, and every frame an adapter
// received its driver passed up or rejected. The testbed's traffic is all
// unicast — the segment resolves every host's address.
func checkEtherLedger(t *testing.T, l *Lab) {
	t.Helper()
	if l.Segment == nil {
		return
	}
	var sent, ended int64
	for i, h := range l.Hosts {
		a, d := h.EthAdapter, h.EthDriver
		sent += a.FramesSent
		ended += a.FramesRecv + a.Filtered + a.GEDrops + a.DownDrops
		if d.FramesIn+d.FCSErrors != a.FramesRecv {
			t.Errorf("%s: adapter received %d frames, driver passed up %d and rejected %d",
				HostName(i), a.FramesRecv, d.FramesIn, d.FCSErrors)
		}
	}
	if ended += l.Segment.UnknownUnicasts; sent != ended {
		t.Errorf("%d frames sent, %d received or dropped for a counted cause", sent, ended)
	}
}

// flap is a link-flap schedule that keeps cutting host's access link for
// 400 µs at a time, at instants that land mid-frame.
func flap(host int) sim.FaultSchedule {
	var s sim.FaultSchedule
	for i := 0; i < 40; i++ {
		at := sim.Time(i)*7*sim.Millisecond + 3*sim.Millisecond + sim.Time(i)*137*sim.Microsecond
		s = append(s, sim.FaultEvent{At: at, Kind: sim.FaultLinkDown, Host: host},
			sim.FaultEvent{At: at + 400*sim.Microsecond, Kind: sim.FaultLinkUp, Host: host})
	}
	return s
}

// flips schedules n bit flips of kind, alternating between the pair's
// hosts, one every 5 ms from 2 ms on, at bits spread over [0, bits): a
// fixed stand-in for noise on an echo run.
func flips(kind sim.FaultKind, n, bits int) sim.FaultSchedule {
	var s sim.FaultSchedule
	for i := 0; i < n; i++ {
		at := sim.Time(i)*5*sim.Millisecond + 2*sim.Millisecond
		s = append(s, sim.FaultEvent{At: at, Kind: kind, Host: i % 2, Bit: i * 7919 % bits})
	}
	return s
}

// poisonScratch arms every loop's use-after-return tripwire.
func poisonScratch(l *Lab) {
	for _, sh := range l.Cluster().Shards {
		sh.Env.Arena().Poison = true
	}
}

// TestArenaDrainsToZero is the checkout rule seen from a whole testbed.
// A loss-free echo — the paper's pair, a pair through a switch, a pair
// split across shards — ends with nothing checked out of any loop's
// arena. A run that loses or mangles cells (each row is one of the ways a
// frame can be abandoned mid-reassembly: a sequence gap, a CRC-10
// failure, a beginning over an open frame when only the end was lost, a
// link that goes dark mid-frame) may end with frames stuck open, and then
// exactly those are outstanding; Lab.Reset hands them back through the
// drivers before the environments check, so the rewind succeeds and
// leaves zero.
//
// An Ethernet frame is a checkout too, but nothing holds one across
// quiescence — a frame in flight is a pending event, a queued one a
// pending interrupt — so those rows must drain to zero however many
// frames the run lost, and their ledger must balance. (For the same
// reason no drained lab has frames left in an adapter's queues for Reset
// to hand back; ether's TestEveryFrameComesBack builds that case.) So is
// a datagram udp hands a receiver, until the receiver releases it: the
// loss-free serial rows echo over UDP as well.
func TestArenaDrainsToZero(t *testing.T) {
	cases := []struct {
		name          string
		cfg           Config
		hosts, shards int
		faults        sim.FaultSchedule
		lossFree      bool
	}{
		{name: "echo pair", cfg: Config{Link: LinkATM}, hosts: 2, shards: 1, lossFree: true},
		{name: "echo pair, integrated checksum", cfg: Config{Link: LinkATM, Mode: cost.ChecksumIntegrated}, hosts: 2, shards: 1, lossFree: true},
		{name: "echo through a hub", cfg: Config{Link: LinkATM}, hosts: 3, shards: 1, lossFree: true},
		{name: "echo across 3 shards", cfg: Config{Link: LinkATM}, hosts: 3, shards: 3, lossFree: true},
		{name: "echo across a cut fat tree", cfg: Config{Link: LinkATM, Fabric: FabricFatTree, LeafPorts: 1}, hosts: 4, shards: 4, lossFree: true},
		{name: "cell loss (sequence gaps, lost ends)", cfg: Config{Link: LinkATM, BurstLoss: sim.GEParams{LossGood: 0.003}}, hosts: 2, shards: 1},
		{name: "cell corruption (CRC-10, HEC)", cfg: Config{Link: LinkATM}, hosts: 2, shards: 1, faults: flips(sim.FaultWireFlip, 12, 20*424)},
		{name: "host corruption", cfg: Config{Link: LinkATM}, hosts: 2, shards: 1, faults: flips(sim.FaultControllerFlip, 12, 8000*8)},
		{name: "burst loss and reordering", cfg: Config{Link: LinkATM,
			BurstLoss:   sim.GEParams{PGoodBad: 0.004, PBadGood: 0.2, LossBad: 0.6},
			ReorderRate: 0.002, ReorderDepth: 2}, hosts: 3, shards: 1},
		{name: "link flaps mid-frame", cfg: Config{Link: LinkATM}, hosts: 3, shards: 1, faults: flap(1)},
		{name: "ether pair", cfg: Config{Link: LinkEther}, hosts: 2, shards: 1, lossFree: true},
		{name: "ether pair, integrated checksum", cfg: Config{Link: LinkEther, Mode: cost.ChecksumIntegrated}, hosts: 2, shards: 1, lossFree: true},
		{name: "ether, 5-host segment", cfg: Config{Link: LinkEther}, hosts: 5, shards: 1, lossFree: true},
		{name: "ether, burst loss", cfg: Config{Link: LinkEther,
			BurstLoss: sim.GEParams{PGoodBad: 0.02, PBadGood: 0.3, LossBad: 0.7}}, hosts: 3, shards: 1},
		{name: "ether, frame loss", cfg: Config{Link: LinkEther, BurstLoss: sim.GEParams{LossGood: 0.02}}, hosts: 2, shards: 1},
		{name: "ether, link flaps", cfg: Config{Link: LinkEther}, hosts: 3, shards: 1, faults: flap(1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Seed = 1994
			c, err := NewCluster(tc.cfg, tc.hosts, tc.shards)
			if err != nil {
				t.Fatal(err)
			}
			l := c.Lab
			poisonScratch(l)
			if tc.faults != nil {
				if err := l.ScheduleFaults(tc.faults); err != nil {
					t.Fatal(err)
				}
			}
			res, err := l.RunEcho(8000, 30, 2)
			if err != nil {
				t.Fatal(err)
			}
			if res.CorruptEchoes != 0 {
				t.Errorf("%d corrupt echoes", res.CorruptEchoes)
			}
			if tc.lossFree && tc.shards == 1 {
				// A received datagram is a checkout until its receiver
				// releases it; the UDP echo has no retransmission, so it
				// runs only where nothing is lost.
				if res, err := l.RunUDPEcho(min(8000, l.MTU()-28), 30, 2); err != nil || res.CorruptEchoes != 0 {
					t.Fatalf("UDP echo: %v, %+v", err, res)
				}
			}
			if !tc.lossFree {
				var hurt int64
				for _, h := range l.Hosts {
					if a := h.EthAdapter; a != nil {
						hurt += a.GEDrops + a.DownDrops
						continue
					}
					hurt += h.ATMAdapter.CellsDropped + h.ATMAdapter.CellsCorrupted + h.TCP.Stats.ChecksumErrors + h.IP.Drops
				}
				if hurt == 0 {
					t.Fatal("the run lost and damaged nothing: the case no longer reaches an abort path")
				}
			}
			out, open := arenaState(l)
			if out != open {
				t.Errorf("drained with %d buffers checked out but %d frames mid-reassembly", out, open)
			}
			if tc.lossFree && out != 0 {
				t.Errorf("a loss-free run ended with %d buffers checked out", out)
			}
			checkEtherLedger(t, l)
			if err := l.Reset(tc.cfg, 0); err != nil {
				t.Fatalf("Reset: %v", err)
			}
			if out, open := arenaState(l); out != 0 || open != 0 {
				t.Errorf("after Reset: %d buffers checked out, %d frames open", out, open)
			}
		})
	}
}

// TestResetHandsBackStrandedFrames pins the order inside Reset on the
// case built to need it: cells of a frame whose end never comes are fed
// straight into a host's adapter, so its driver holds a reassembly buffer
// with no event pending anywhere — which a rewind of the environment
// alone would have to refuse.
func TestResetHandsBackStrandedFrames(t *testing.T) {
	cfg := Config{Link: LinkATM, Seed: 7}
	l := NewTopology(cfg, 3)
	l.Env.Run() // park the service processes
	h := l.Hosts[2]
	// A beginning and a continuation, then silence. The driver drains a
	// FIFO only on a frame end or at its occupancy threshold, so a
	// complete single-cell frame on another channel follows to raise the
	// interrupt.
	open := segmentFor(40, 300)[:2]
	done := segmentFor(41, 20)
	for i := range open {
		h.ATMAdapter.InjectCell(open[i])
	}
	h.ATMAdapter.InjectCell(done[0])
	l.Env.Run()
	if out, stuck := arenaState(l); out != 1 || stuck != 1 {
		t.Fatalf("%d buffers checked out, %d frames open; want 1 and 1", out, stuck)
	}
	if err := l.Reset(cfg, 0); err != nil {
		t.Fatalf("Reset with a frame stranded mid-reassembly: %v", err)
	}
	if out, stuck := arenaState(l); out != 0 || stuck != 0 {
		t.Fatalf("after Reset: %d buffers checked out, %d frames open", out, stuck)
	}
	if res, err := l.RunEcho(1400, 4, 1); err != nil || res.CorruptEchoes != 0 {
		t.Fatalf("echo on the rewound lab: %v, %+v", err, res)
	}
}

// TestReleasedScratchIsPoisoned runs the echo benchmark with every
// loop's arena overwriting each buffer the moment it comes back: the
// round-trip times, the per-layer spans behind Tables 2 and 3 and every
// echoed payload must match the unpoisoned run exactly, on the pair and
// across shards, in every checksum mode — a driver, reassembler or
// transmit queue that read a buffer after returning it would echo 0xDB.
// The Ethernet rows hold its frames to the same: an adapter queue or a
// receive process that kept reading a frame it had given back. On one
// loop each size that fits a datagram is echoed over UDP too, whose
// received datagrams are checkouts: an echo server or client that read
// one after releasing it would send or compare 0xDB.
func TestReleasedScratchIsPoisoned(t *testing.T) {
	for _, link := range []LinkKind{LinkATM, LinkEther} {
		for _, hosts := range []int{2, 3} {
			for mode := 0; mode < 3; mode++ {
				cfg := Config{Link: link, Seed: 1994, Mode: cost.ChecksumMode(mode), PacketTrace: true}
				// run returns the TCP echoes' fingerprint and, serial only,
				// the UDP echoes'.
				run := func(poison bool, shards int) (tcp, udp string) {
					c, err := NewCluster(cfg, hosts, shards)
					if err != nil {
						t.Fatal(err)
					}
					if poison {
						poisonScratch(c.Lab)
					}
					for _, size := range []int{4, 200, 1400, 8000} {
						res, err := c.Lab.RunEcho(size, 6, 2)
						if err != nil {
							t.Fatal(err)
						}
						tcp += fmt.Sprintf("%d:%v:%d:%d;", size, res.RTTs, res.CorruptEchoes, len(c.Lab.PacketEvents()))
						if err := c.Lab.Reset(cfg, 0); err != nil {
							t.Fatal(err)
						}
						if shards > 1 || size > c.Lab.MTU()-28 {
							continue // the UDP echo runs on one loop, in one datagram
						}
						if res, err = c.Lab.RunUDPEcho(size, 6, 2); err != nil {
							t.Fatal(err)
						}
						udp += fmt.Sprintf("%d:%v:%d;", size, res.RTTs, res.CorruptEchoes)
						if err := c.Lab.Reset(cfg, 0); err != nil {
							t.Fatal(err)
						}
					}
					return tcp, udp
				}
				want, wantUDP := run(false, 1)
				if got, gotUDP := run(true, 1); got != want || gotUDP != wantUDP {
					t.Errorf("%v, %d hosts, mode %d: poisoned run diverged\n got %s %s\nwant %s %s", link, hosts, mode, got, gotUDP, want, wantUDP)
				}
				if link != LinkATM || hosts == 2 {
					continue // one broadcast domain, or one pair: nothing to cut
				}
				if got, _ := run(true, hosts); got != want {
					t.Errorf("%d hosts, mode %d: poisoned sharded run diverged\n got %s\nwant %s", hosts, mode, got, want)
				}
			}
		}
	}
}

// echoFingerprint reduces a finished echo run to everything the cell path
// can move: every round-trip time, the corrupt-echo count, and every
// counter the adapters, drivers and switches keep on the way.
func echoFingerprint(l *Lab, res *EchoResult) string {
	fp := fmt.Sprintf("%v:%d;", res.RTTs, res.CorruptEchoes)
	for _, h := range l.Hosts {
		a, d := h.ATMAdapter, h.ATMDriver
		fp += fmt.Sprintf("a%d,%d,%d,%d,%d,%d,%d;d%d,%d,%d,%d;", a.CellsSent, a.CellsDropped, a.CellsCorrupted,
			a.RxOverflows, a.GEDrops, a.CellsReordered, a.DownDrops, d.FramesIn, d.FramesOut, d.ReassemblyErrors, d.HECErrors)
	}
	if f := l.Fabric; f != nil {
		for _, sw := range append([]*atm.Switch{f.Core}, f.Leaves...) {
			fp += fmt.Sprintf("s%d,%d,%d,%d;", sw.CellsSwitched, sw.CellsUnrouted, sw.CellsDropped, sw.HECErrors)
		}
	}
	return fp
}

// TestLentCellsAreNotKept is the poison tripwire on the runs in which
// something holds a cell past the call that delivered it, now that a cell
// is delivered as a pointer into the sender's transmit queue (whose record
// is overwritten the moment the call returns, under Poison): a cell held
// back for reordering and released by a later arrival, or by the flush
// timer when none comes; a link-noise bit flip, which now lands in the
// sender's record; a cell that arrives to find the link dark; a cell
// staged across a cut. Each run, poisoned, must match the plain one — and
// both must match the fingerprint the same run had at the commit before
// cells moved by pointer, captured there with this same function: the
// receiver's bytes are what they were. The two reordering rows were
// re-captured when tcp_output began advancing the send sequence with its
// send decision: the RTT sample starts there, so a few timeout-bound
// round trips moved by milliseconds and no counter moved. The two bit-flip
// rows were re-captured when cell corruption moved from the environment's
// RNG to the link's own stream: other bits flip. They were written anew,
// with their fingerprints, when a fixed schedule of flips replaced the
// corruption rate: a flip lands in the sender's record at launch.
func TestLentCellsAreNotKept(t *testing.T) {
	rows := []struct {
		name          string
		cfg           Config
		hosts, shards int
		faults        sim.FaultSchedule
		reaches       func(l *Lab) int64 // the counter that says the row still gets there
		parent        string             // SHA-256 of the fingerprint at the parent commit
	}{
		{name: "held one arrival", cfg: Config{ReorderRate: 0.004, ReorderDepth: 1}, hosts: 2, shards: 1,
			reaches: func(l *Lab) int64 { return l.Server.ATMAdapter.CellsReordered },
			parent:  "01df90fdeec6e0b416c066526255cfc87892475e0b219ea51333dac6d3df33b2"},
		{name: "held five arrivals, or until the flush timer, behind a hub", cfg: Config{ReorderRate: 0.003, ReorderDepth: 5}, hosts: 3, shards: 1,
			reaches: func(l *Lab) int64 { return l.Server.ATMAdapter.CellsReordered },
			parent:  "730bc7ce4ae4fa9f8033cad37008a251f2a0352254a2ed1840f18e59919eea97"},
		{name: "bit flips on the pair", cfg: Config{}, hosts: 2, shards: 1, faults: flips(sim.FaultWireFlip, 12, 20*424),
			reaches: func(l *Lab) int64 { return l.Client.ATMAdapter.CellsCorrupted },
			parent:  "42cc1384d476c8908c9478549872b80255b5611b250258a4dc222a3adfb66b80"},
		{name: "bit flips behind a hub", cfg: Config{}, hosts: 3, shards: 1, faults: flips(sim.FaultWireFlip, 12, 20*424),
			reaches: func(l *Lab) int64 { return l.Client.ATMAdapter.CellsCorrupted + l.Switch.HECErrors },
			parent:  "70e853e032b4446f198ed471c06428c38d271ff672144356cb08166e34c4c8e4"},
		{name: "link flaps", cfg: Config{}, hosts: 3, shards: 1, faults: flap(1),
			reaches: func(l *Lab) int64 { return l.Server.ATMAdapter.DownDrops },
			parent:  "43c1eabd87003259c73ef26849682f0d3507a7ca131b4017dbdc3668495e39a1"},
		{name: "fat tree cut four ways", cfg: Config{Fabric: FabricFatTree, LeafPorts: 1}, hosts: 4, shards: 4,
			reaches: func(l *Lab) int64 { return l.Cluster().cellsStaged },
			parent:  "e27f1b0a19f3840fdf32a558cc110dbbd12d085ff764b1fac22fca27556b5d52"},
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Link, tc.cfg.Seed = LinkATM, 1994
			run := func(poison bool) string {
				c, err := NewCluster(tc.cfg, tc.hosts, tc.shards)
				if err != nil {
					t.Fatal(err)
				}
				if poison {
					poisonScratch(c.Lab)
				}
				if tc.faults != nil {
					if err := c.Lab.ScheduleFaults(tc.faults); err != nil {
						t.Fatal(err)
					}
				}
				res, err := c.Lab.RunEcho(8000, 30, 2)
				if err != nil {
					t.Fatal(err)
				}
				if tc.reaches(c.Lab) == 0 {
					t.Fatal("the run no longer reaches the case it was written for")
				}
				return echoFingerprint(c.Lab, res)
			}
			plain := run(false)
			if got := run(true); got != plain {
				t.Errorf("the poisoned run diverged\n got %s\nwant %s", got, plain)
			}
			if sum := fmt.Sprintf("%x", sha256.Sum256([]byte(plain))); sum != tc.parent {
				t.Errorf("fingerprint %s, the parent commit's was %q", sum, tc.parent)
			}
		})
	}
}
