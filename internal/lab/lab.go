// Package lab assembles complete simulated testbeds: N DECstation
// 5000/200 hosts, each with a kernel, IP and TCP stacks, and either FORE
// TCA-100 ATM adapters or LANCE Ethernets. The two-host constructor New
// reproduces the configuration of §1.1 exactly — a private switchless
// ATM fiber or a private Ethernet segment — plus the round-trip echo
// benchmark of §1.2. NewTopology generalizes it: any number of hosts on
// a shared Ethernet Segment or attached to a routed fabric of
// output-queued ATM switches whose virtual channels are installed on
// demand, the substrate for fan-in and connection-churn workloads
// (internal/workload). Every testbed is wired once by one builder and
// re-configured between trials by one Reset (see Cluster): a serial lab
// is the cluster with one shard.
package lab

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/atm"
	"repro/internal/cost"
	"repro/internal/ether"
	"repro/internal/ip"
	"repro/internal/kern"
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/trace"
	"repro/internal/udp"
)

// LinkKind selects the network technology under test (Table 1's variable).
type LinkKind int

// Available link kinds.
const (
	LinkATM LinkKind = iota
	LinkEther
)

// String names the link for reports.
func (l LinkKind) String() string {
	if l == LinkEther {
		return "Ethernet"
	}
	return "ATM"
}

// ParseLinkKind maps a flag string to a LinkKind.
func ParseLinkKind(s string) (LinkKind, error) {
	switch s {
	case "atm":
		return LinkATM, nil
	case "ether":
		return LinkEther, nil
	}
	return LinkATM, fmt.Errorf("unknown link %q (atm, ether)", s)
}

// Config describes one experimental configuration: every knob the paper's
// experiments turn. What each field applies to — its range, the hardware
// it configures, whether it can run sharded — is Validate's to say; a
// nonzero field on a testbed with nothing to read it is refused there.
type Config struct {
	// Link selects ATM or Ethernet.
	Link LinkKind
	// Mode is the checksum configuration on both hosts.
	Mode cost.ChecksumMode
	// DisablePrediction builds the paper's §3 kernel with the PCB cache
	// and TCP fast path turned off.
	DisablePrediction bool
	// HashPCBs uses the hash-table PCB organization instead of the list.
	HashPCBs bool
	// LivePCBs opens this many real TCP connections (client to server,
	// established and left open) ahead of the echo benchmark's connection,
	// so both ends' demultiplexing must walk past that many entries — the
	// §3 PCB-population study's variable.
	LivePCBs int
	// CellLossRate injects random ATM cell loss.
	CellLossRate float64
	// CellCorruptRate flips random bits in cells on the wire (caught by
	// HEC / AAL CRC-10).
	CellCorruptRate float64
	// HostCorruptRate flips random bits in reassembled datagrams during
	// the device-to-host transfer (invisible to the AAL; only the TCP
	// checksum can catch it — the §4.2.1 buggy-controller scenario).
	HostCorruptRate float64
	// BurstLoss layers a Gilbert–Elliott two-state burst-loss chain on
	// every host's receive path — correlated losses that kill several
	// cells of one AAL frame at once, unlike the independent drops of
	// CellLossRate. Each host's chain has a private RNG derived from
	// Seed, so enabling it perturbs no other random draw.
	BurstLoss sim.GEParams
	// ReorderRate holds each arriving ATM cell back past the next
	// ReorderDepth deliveries with this probability — bounded cell
	// reordering, which AAL3/4 sequence checking converts into frame
	// loss. Zero depth means 1.
	ReorderRate  float64
	ReorderDepth int
	// Qdisc installs a queue discipline on every switch egress port of a
	// routed ATM fabric (3+ hosts): drop-tail, RED, or per-VCI deficit
	// round robin. Disciplines draw only private per-port RNGs, so qdisc
	// configurations stay shardable.
	Qdisc QdiscConfig
	// MTU, when positive, lowers the MTU the link's driver advertises to
	// IP (and so the MSS TCP negotiates) below the link default — a
	// sweep dimension beyond the paper's grid, within [MinMTU,
	// MaxMTU(Link)].
	MTU int
	// SockBuf, when positive, overrides the socket-buffer high-water
	// marks on both hosts (default sock.DefaultHiwat). Buffers smaller
	// than the transfer size serialize segments behind window updates.
	SockBuf int
	// PacketTrace arms every host's recorder for the run
	// (trace.Recorder.EnablePackets): each keeps all of the run's events,
	// and Lab.PacketEvents collects them windowed by time — for the echo
	// benchmark, from the first measured write on; for the other
	// workloads, the whole run. Tracing charges no simulated time, so a
	// traced run is bit-identical in timing to an untraced one at the
	// same seed.
	PacketTrace bool
	// CheckLeaks arms the pool-leak gate for testbed reuse: when the lab
	// is Reset for its next trial, the reset fails if any host's mbuf
	// pool still reports live headers or cluster pages — a chain the
	// finished trial never freed, which would otherwise ride silently
	// into every later trial on this testbed. Debug-only: it never
	// changes simulated behaviour, only whether Reset tolerates a leak.
	CheckLeaks bool
	// Fabric selects the switch arrangement of a multi-host ATM topology:
	// FabricHub (the default) is one switch with every host attached;
	// FabricFatTree arranges hosts on leaf switches (LeafPorts per leaf)
	// trunked to a spine. VC paths are installed on demand in either
	// arrangement, so topology memory is O(active flows), not O(hosts²).
	Fabric FabricKind
	// LeafPorts is the hosts-per-leaf of a fat-tree fabric; zero means
	// atm.DefaultLeafPorts.
	LeafPorts int
	// Cost overrides the cost model (nil means DECstation 5000/200).
	Cost *cost.Model
	// Seed seeds the simulation RNG.
	Seed uint64
	// Nagle leaves the Nagle algorithm enabled on the benchmark
	// connection. By default the harness disables it (TCP_NODELAY), the
	// standard setting for RPC-style benchmarks and the only sender
	// behaviour consistent with the paper's observation that the two
	// segments of an 8000-byte transfer leave back to back.
	Nagle bool
}

// Host is one assembled workstation. It is two allocations (buildHost):
// this struct, which holds the kernel and the IP, TCP and UDP stacks by
// value, and its link's adapter and driver in a second block — so an ATM
// host carries no Ethernet state and the other way round. The exported
// pointers point into the two blocks; a Host is never copied.
type Host struct {
	Kern *kern.Kernel
	IP   *ip.Stack
	TCP  *tcp.Stack
	UDP  *udp.Stack

	ATMAdapter *atm.Adapter
	ATMDriver  *atm.Driver
	EthAdapter *ether.Adapter
	EthDriver  *ether.Driver

	kern kern.Kernel
	ip   ip.Stack
	tcp  tcp.Stack
	udp  udp.Stack
}

// atmLink and etherLink are a host's second block: its link's adapter and
// driver.
type (
	atmLink struct {
		adapter atm.Adapter
		driver  atm.Driver
	}
	etherLink struct {
		adapter ether.Adapter
		driver  ether.Driver
	}
)

// Trace returns the host's trace recorder.
func (h *Host) Trace() *trace.Recorder { return &h.Kern.Trace }

// Lab is an assembled testbed of two or more hosts on one link substrate.
type Lab struct {
	Env *sim.Env
	// Hosts are the workstations, in address order (HostAddr(i)).
	Hosts []*Host
	// Client and Server alias Hosts[0] and Hosts[1], the pair every
	// two-host paper experiment runs on.
	Client *Host
	Server *Host
	Config Config

	// Segment is the shared broadcast domain of an Ethernet topology.
	Segment *ether.Segment
	// Switch is the core cell switch of an ATM topology with more than
	// two hosts — the hub of a hub fabric, the spine of a fat tree; nil
	// for the paper's switchless two-host fiber.
	Switch *atm.Switch
	// Fabric is the routed multi-switch topology behind Switch; nil for
	// Ethernet and the two-host fiber.
	Fabric *atm.Fabric

	// cluster is the executor that built this lab and that it runs under
	// (see Cluster); a serial lab's has one shard.
	cluster *Cluster
	// eventsSince is the start of the measured window: the echo client
	// stamps its first measured write here, and PacketEvents reports the
	// events from it on. Zero (every other run) reports the whole run.
	eventsSince sim.Time

	// faultState is the fault tier's outage bookkeeping (fault.go),
	// allocated on first use; nil on the unfaulted hot path.
	faultState *faultState
	// wd is the armed no-progress watchdog, nil when disarmed.
	wd *sim.Watchdog
}

// FabricKind selects the ATM switch arrangement (see atm.FabricKind).
type FabricKind = atm.FabricKind

// Fabric kinds, re-exported for Config literals.
const (
	FabricHub     = atm.FabricHub
	FabricFatTree = atm.FabricFatTree
)

// BaseAddr is the first host address on the private network.
const BaseAddr = 0xc0a80101 // 192.168.1.1

// HostAddr returns the IP address of host i (Hosts[i]).
func HostAddr(i int) uint32 { return BaseAddr + uint32(i) }

// Host IP addresses of the two-host pair.
const (
	ClientAddr = BaseAddr     // 192.168.1.1
	ServerAddr = BaseAddr + 1 // 192.168.1.2
)

// MinMTU is the smallest Config.MTU override: room for the IP and TCP
// headers plus data, without which the stack cannot form a segment.
const MinMTU = 64

// MaxMTU returns the link's native MTU, the largest Config.MTU override.
func MaxMTU(l LinkKind) int {
	if l == LinkEther {
		return ether.MTU
	}
	return atm.MTU
}

// New builds the paper's two-host testbed per the configuration.
func New(cfg Config) *Lab { return NewTopology(cfg, 2) }

// NewTopology builds a testbed of nHosts workstations on one link
// substrate and one event loop (see build, the one builder). Two ATM
// hosts share the paper's switchless fiber; more attach to a routed
// fabric of output-queued switches (Config.Fabric: one hub by default, or
// a two-level fat tree), with each flow's virtual channels installed on
// demand by the first datagram — the VC from host i to host j is
// rewritten at the last switch so that the VCI arriving at j identifies
// the source, giving each flow its own reassembly context. Ethernet hosts
// of any number share a Segment with static IP bindings. Host i answers
// at HostAddr(i). A configuration Validate refuses panics with its
// *ConfigError (NewCluster returns it instead).
func NewTopology(cfg Config, nHosts int) *Lab {
	c, err := NewCluster(cfg, nHosts, 1)
	if err != nil {
		panic(err)
	}
	return c.Lab
}

// Reset rewinds the testbed for its next trial: Cluster.Reset on the
// cluster the lab runs under, which rewinds every shard.
func (l *Lab) Reset(cfg Config, seed uint64) error { return l.cluster.Reset(cfg, seed) }

// ErrPoolLeak marks a Reset refused by the Config.CheckLeaks gate: the
// finished trial left live mbuf chains behind. Callers that fall back
// to a fresh lab on other Reset failures (an undrained event loop, a
// shape mismatch) must NOT swallow this one — it reports a bug in the
// stack, not an unusable testbed.
var ErrPoolLeak = errors.New("mbuf pool leak")

// PoolLive sums the live mbuf headers and cluster pages across every
// host's pool — both zero between trials unless a chain leaked.
func (l *Lab) PoolLive() (hdrs, pages int64) {
	for _, h := range l.Hosts {
		hdrs += h.Kern.Pool.PoolStats.LiveHeaders
		pages += h.Kern.Pool.PoolStats.LivePages
	}
	return hdrs, pages
}

// rewindHost returns one workstation's per-trial state — CPU, pools,
// trace records, PCB tables, FIFO contents — to what buildHost left, under
// the next trial's cost model. The trial's knobs are configure's to set.
func rewindHost(h *Host, model *cost.Model) {
	h.Kern.Reset(model)
	h.IP.Reset()
	if h.ATMAdapter != nil {
		h.ATMAdapter.Reset()
		h.ATMDriver.Reset()
	}
	if h.EthAdapter != nil {
		h.EthAdapter.Reset()
		h.EthDriver.Reset()
	}
	h.TCP.Reset()
	h.UDP.Reset()
}

// HostName returns the trace host name of host i — the name its events
// carry in a merged stream (PacketEvents). The paper's echo pair fixed
// the names: host 0 is "client", host 1 is "server", the rest are
// numbered. Note the workload engine puts its SERVER on host 0, so a
// fan-in server's trace events carry the name "client".
func HostName(i int) string { return kern.HostName(i) }

// buildHost allocates host i on env — the Host with the kernel and the
// stacks in it, and the link's adapter and driver — and initializes each
// in place, in the order that starts the service processes as separate
// constructors did: the netisr, the driver's receive process, the TCP
// timers. It applies no trial knob — configure does, for a fresh host and
// a rewound one alike.
func buildHost(env *sim.Env, model *cost.Model, link LinkKind, i int) *Host {
	h := new(Host)
	addr := HostAddr(i)
	k := h.kern.InitHost(env, model, i)
	h.Kern = k
	h.IP = h.ip.Init(k, addr)
	switch link {
	case LinkATM:
		ln := new(atmLink)
		h.ATMAdapter = ln.adapter.Init(k)
		h.ATMDriver = ln.driver.Init(k, h.ATMAdapter, h.IP)
	case LinkEther:
		// Locally administered MAC carrying the host's IP address, so
		// every station on a shared segment is unique.
		station := [6]byte{2, 0, byte(addr >> 24), byte(addr >> 16), byte(addr >> 8), byte(addr)}
		ln := new(etherLink)
		h.EthAdapter = ln.adapter.Init(k, station)
		h.EthDriver = ln.driver.Init(k, h.EthAdapter, h.IP)
	}
	h.TCP = h.tcp.Init(k, h.IP)
	h.UDP = h.udp.Init(k, h.IP)
	return h
}

// EchoResult is the outcome of one echo benchmark run.
type EchoResult struct {
	Size       int
	Iterations int
	// CorruptEchoes counts measured iterations whose echoed bytes did
	// not match what was sent — end-to-end data corruption that every
	// lower-layer check missed. Zero in every experiment except the
	// §4.2.1 study's no-checksum-plus-host-corruption configuration.
	CorruptEchoes int
	RTTs          []sim.Time
	// Windows give, for each measured iteration, the client-side
	// timestamps the breakdown computations need.
	Windows []IterWindow
}

// newEchoResult returns the result of a run that will measure iterations
// round trips, with room for them: the records are appended one a round
// trip, and growing them by doubling was a third of what a small-packet
// sweep allocated.
func newEchoResult(size, iterations int) *EchoResult {
	n := max(iterations, 0)
	return &EchoResult{
		Size: size, Iterations: iterations,
		RTTs: make([]sim.Time, 0, n), Windows: make([]IterWindow, 0, n),
	}
}

// IterWindow delimits one measured round trip on the client.
type IterWindow struct {
	WriteStart sim.Time // client entered write(2)
	WriteEnd   sim.Time // write returned
	ReadReturn sim.Time // read of the full echo returned
}

// MeanRTT returns the average round-trip time.
func (r *EchoResult) MeanRTT() sim.Time {
	if len(r.RTTs) == 0 {
		return 0
	}
	var sum sim.Time
	for _, v := range r.RTTs {
		sum += v
	}
	return sum / sim.Time(len(r.RTTs))
}

// MeanRTTMicros returns the average round-trip time in microseconds, the
// paper's reporting unit.
func (r *EchoResult) MeanRTTMicros() float64 { return r.MeanRTT().Micros() }

// MedianRTTMicros returns the median round-trip time in microseconds.
// Under injected loss the mean is dominated by retransmission-timeout
// stalls; the median shows the loss-free common case.
func (r *EchoResult) MedianRTTMicros() float64 {
	var s stats.Sample
	s.Grow(len(r.RTTs))
	for _, v := range r.RTTs {
		s.Add(v.Micros())
	}
	return s.Percentile(50)
}

// echoPort is the server's listening port.
const echoPort = 7 // the echo service

// livePort accepts the Config.LivePCBs population connections.
const livePort = 9 // the discard service

// livePCBsFrame opens n real connections from the client to the
// server's discard port and leaves them established. The harness calls
// it after the benchmark connection is established, so they sit ahead of
// it on both PCB lists (BSD inserts at the head) and every cache-miss
// lookup must walk past them — the situation the §3 hash-table
// discussion addresses.
type livePCBsFrame struct {
	l  *Lab
	n  int
	i  int
	op *tcp.ConnectOp

	Err error
}

// Step opens one connection per re-entry until n are established.
func (f *livePCBsFrame) Step(p *sim.Proc) {
	if f.op != nil {
		if f.op.Err != nil {
			f.Err = fmt.Errorf("lab: live PCB %d: %w", f.i, f.op.Err)
			p.Return()
			return
		}
		f.op = nil
		f.i++
	}
	if f.i >= f.n {
		p.Return()
		return
	}
	f.op = f.l.Client.TCP.Connect(p, ServerAddr, livePort)
}

// echoServerFrame is the echo server: accept one connection, then loop
// reading size bytes and writing them back until the peer closes.
type echoServerFrame struct {
	l    *Lab
	ln   *tcp.Listener
	size int

	pc     int
	accept *tcp.AcceptOp
	so     *sock.Socket
	buf    []byte
	total  int
	recv   *sock.RecvOp
	send   *sock.SendOp
}

// Step drives the server loop.
func (f *echoServerFrame) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0: // accept the benchmark connection
			f.pc = 1
			f.accept = f.ln.Accept(p)
			return
		case 1: // configure it and enter the echo loop
			f.so = f.accept.So
			if !f.l.Config.Nagle {
				f.accept.C.SetNoDelay(true)
			}
			f.accept = nil
			f.buf = make([]byte, f.size)
			f.total = 0
			f.pc = 2
		case 2: // read until a full request is in
			if f.total < f.size {
				f.pc = 3
				f.recv = f.so.Recv(p, f.buf[f.total:])
				return
			}
			f.pc = 4
			f.send = f.so.Send(p, f.buf)
			return
		case 3: // fold in one read's result
			if f.recv.Err != nil || f.recv.N == 0 {
				p.Return()
				return
			}
			f.total += f.recv.N
			f.recv = nil
			f.pc = 2
		case 4: // echo written; next request
			if f.send.Err != nil {
				p.Return()
				return
			}
			f.send = nil
			f.total = 0
			f.pc = 2
		}
	}
}

// echoClientFrame is the benchmark client: connect, populate the PCB
// tables, then run warmup+iterations timed request/response round trips.
type echoClientFrame struct {
	l          *Lab
	size       int
	iterations int
	warmup     int
	res        *EchoResult
	runErr     *error

	pc       int
	conn     *tcp.ConnectOp
	live     *livePCBsFrame
	so       *sock.Socket
	msg, buf []byte
	i        int
	total    int
	w        IterWindow
	recv     *sock.RecvOp
	send     *sock.SendOp
}

// fail records the run error and finishes the frame.
func (f *echoClientFrame) fail(p *sim.Proc, err error) {
	*f.runErr = err
	p.Return()
}

// Step drives the client loop.
func (f *echoClientFrame) Step(p *sim.Proc) {
	l := f.l
	for {
		switch f.pc {
		case 0: // connect to the echo server
			f.pc = 1
			f.conn = l.Client.TCP.Connect(p, ServerAddr, echoPort)
			return
		case 1: // configure the connection, populate the PCB tables
			if f.conn.Err != nil {
				f.fail(p, f.conn.Err)
				return
			}
			f.so = f.conn.So
			if !l.Config.Nagle {
				f.conn.C.SetNoDelay(true)
			}
			f.conn = nil
			if l.Config.LivePCBs > 0 {
				f.live = &livePCBsFrame{l: l, n: l.Config.LivePCBs}
				f.pc = 2
				p.Call(f.live)
				return
			}
			f.pc = 3
		case 2: // fold in the live-population result
			if f.live.Err != nil {
				f.fail(p, f.live.Err)
				return
			}
			f.live = nil
			f.pc = 3
		case 3: // prepare the message buffers
			f.msg = make([]byte, f.size)
			l.Env.RNG().Fill(f.msg)
			f.buf = make([]byte, f.size)
			f.i = 0
			f.pc = 4
		case 4: // iteration head: write the request
			if f.i >= f.warmup+f.iterations {
				f.pc = 8
				f.so.Close(p)
				return
			}
			f.w = IterWindow{WriteStart: l.Env.Now()}
			if f.i == f.warmup {
				l.eventsSince = f.w.WriteStart
			}
			f.pc = 5
			f.send = f.so.Send(p, f.msg)
			return
		case 5: // request written; read the echo
			if f.send.Err != nil {
				f.fail(p, f.send.Err)
				return
			}
			f.send = nil
			f.w.WriteEnd = l.Env.Now()
			f.total = 0
			f.pc = 6
		case 6: // read loop head
			if f.total < f.size {
				f.pc = 7
				f.recv = f.so.Recv(p, f.buf[f.total:])
				return
			}
			f.w.ReadReturn = l.Env.Now()
			if f.i >= f.warmup {
				f.res.RTTs = append(f.res.RTTs, f.w.ReadReturn-f.w.WriteStart)
				f.res.Windows = append(f.res.Windows, f.w)
				if !bytes.Equal(f.buf, f.msg) {
					f.res.CorruptEchoes++
				}
			}
			f.i++
			f.pc = 4
		case 7: // fold in one read's result
			if f.recv.Err != nil {
				f.fail(p, f.recv.Err)
				return
			}
			if f.recv.N == 0 {
				f.fail(p, fmt.Errorf("lab: unexpected EOF at iteration %d", f.i))
				return
			}
			f.total += f.recv.N
			f.recv = nil
			f.pc = 6
		case 8: // closed; done
			p.Return()
			return
		}
	}
}

// RunEcho runs the paper's benchmark (§1.2): the client (host 0)
// connects, then repeatedly sends size bytes and waits to receive size
// bytes back from the server (host 1), for warmup unmeasured iterations
// followed by iterations measured ones. It is the one echo driver, serial
// or sharded: the server runs on its own host's loop and the cluster's Run
// drives every loop. A recorder armed for the run keeps all of it,
// handshake and warmup included; the client stamps its first measured
// write, and PacketEvents cuts the stream there by time.
func (l *Lab) RunEcho(size, iterations, warmup int) (*EchoResult, error) {
	c := l.Cluster()
	res := newEchoResult(size, iterations)
	var runErr error

	ln, err := l.Server.TCP.Listen(echoPort)
	if err != nil {
		return nil, err
	}
	if l.Config.LivePCBs > 0 {
		if _, err := l.Server.TCP.Listen(livePort); err != nil {
			return nil, err
		}
	}
	c.EnvOf(1).Spawn("server.echo", &echoServerFrame{l: l, ln: ln, size: size})
	l.Env.Spawn("client.echo", &echoClientFrame{
		l: l, size: size, iterations: iterations, warmup: warmup,
		res: res, runErr: &runErr,
	})
	c.Run()
	if runErr != nil {
		return nil, runErr
	}
	if len(res.RTTs) != iterations {
		return nil, fmt.Errorf("lab: measured %d of %d iterations", len(res.RTTs), iterations)
	}
	return res, nil
}

// udpEchoServerFrame bounces rounds datagrams back to their senders.
type udpEchoServerFrame struct {
	srv    *udp.Endpoint
	rounds int

	pc   int
	i    int
	recv *udp.RecvFromOp
	d    udp.Datagram // the request being echoed, released once sent
}

// Step drives the UDP echo server loop.
func (f *udpEchoServerFrame) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0: // wait for the next request
			if f.i >= f.rounds {
				p.Return()
				return
			}
			f.pc = 1
			f.recv = f.srv.RecvFrom(p)
			return
		case 1: // bounce it back
			f.d = f.recv.D
			f.recv = nil
			f.i++
			f.pc = 2
			f.srv.SendTo(p, f.d.Src, f.d.SrcPort, f.d.Data)
			return
		case 2: // sent: SendTo has copied the payload out
			f.srv.Release(&f.d)
			f.pc = 0
		}
	}
}

// udpEchoClientFrame runs the timed UDP request/response loop.
type udpEchoClientFrame struct {
	l      *Lab
	size   int
	warmup int
	rounds int
	port   uint16
	res    *EchoResult
	runErr *error

	pc   int
	cli  *udp.Endpoint
	msg  []byte
	i    int
	w    IterWindow
	recv *udp.RecvFromOp
}

// Step drives the UDP echo client loop.
func (f *udpEchoClientFrame) Step(p *sim.Proc) {
	l := f.l
	for {
		switch f.pc {
		case 0: // bind and prepare the message
			cli, err := l.Client.UDP.Bind(0)
			if err != nil {
				*f.runErr = err
				p.Return()
				return
			}
			f.cli = cli
			f.msg = make([]byte, f.size)
			l.Env.RNG().Fill(f.msg)
			f.pc = 1
		case 1: // iteration head: send the request
			if f.i >= f.rounds {
				p.Return()
				return
			}
			f.w = IterWindow{WriteStart: l.Env.Now()}
			if f.i == f.warmup {
				l.eventsSince = f.w.WriteStart
			}
			f.pc = 2
			f.cli.SendTo(p, ServerAddr, f.port, f.msg)
			return
		case 2: // request sent; wait for the echo
			f.w.WriteEnd = l.Env.Now()
			f.pc = 3
			f.recv = f.cli.RecvFrom(p)
			return
		case 3: // echo received; record the round trip
			f.w.ReadReturn = l.Env.Now()
			if f.i >= f.warmup {
				f.res.RTTs = append(f.res.RTTs, f.w.ReadReturn-f.w.WriteStart)
				f.res.Windows = append(f.res.Windows, f.w)
				if !bytes.Equal(f.recv.D.Data, f.msg) {
					f.res.CorruptEchoes++
				}
			}
			f.cli.Release(&f.recv.D)
			f.recv = nil
			f.i++
			f.pc = 1
		}
	}
}

// ErrDatagramTooLarge refuses a UDP echo whose datagram would not fit the
// interface MTU: IP here does not fragment.
var ErrDatagramTooLarge = errors.New("lab: UDP datagram exceeds the interface MTU")

// MTU returns the datagram size every host's interface advertises to IP:
// the link's, or Config.MTU below it.
func (l *Lab) MTU() int { return l.Server.IP.If.MTU() }

// RunUDPEcho runs the same request/response benchmark over UDP: the
// datagram baseline for the paper's "is TCP viable for RPC?" question.
// It runs on the lab's cluster and stamps its measured window as RunEcho
// does.
// A payload that one datagram cannot carry — more than the MTU less the
// IP and UDP headers — is refused with ErrDatagramTooLarge.
func (l *Lab) RunUDPEcho(size, iterations, warmup int) (*EchoResult, error) {
	if limit := l.MTU() - ip.HeaderLen - udp.HeaderLen; size > limit {
		return nil, fmt.Errorf("%w: %d-byte payload, at most %d on %v", ErrDatagramTooLarge, size, limit, l.Config.Link)
	}
	res := newEchoResult(size, iterations)
	const port = 2049 // the NFS port, in the spirit of §4.2
	srv, err := l.Server.UDP.Bind(port)
	if err != nil {
		return nil, err
	}
	var runErr error
	c := l.Cluster()
	c.EnvOf(1).Spawn("server.udpecho", &udpEchoServerFrame{srv: srv, rounds: warmup + iterations})
	l.Env.Spawn("client.udpecho", &udpEchoClientFrame{
		l: l, size: size, warmup: warmup, rounds: warmup + iterations,
		port: port, res: res, runErr: &runErr,
	})
	c.Run()
	if runErr != nil {
		return nil, runErr
	}
	if len(res.RTTs) != iterations {
		return nil, fmt.Errorf("lab: udp echo measured %d of %d iterations",
			len(res.RTTs), iterations)
	}
	return res, nil
}

// PacketEvents merges every host's recorded packet events into one
// deterministic stream (trace.EventsFrom), ordered by virtual time with
// ties broken by host order (client, server, host2, …) and emission
// order. An echo run reports its measured window — the events from the
// client's first measured write on, a CPU charge that straddles that
// instant clipped to it — and any other run all of it. The result is a
// pure function of the simulation: the same configuration and seed
// produce byte-identical JSON at any sweep worker count or shard count.
func (l *Lab) PacketEvents() []trace.HostEvent {
	names := make([]string, len(l.Hosts))
	recs := make([]*trace.Recorder, len(l.Hosts))
	for i, h := range l.Hosts {
		names[i] = h.Kern.Name()
		recs[i] = &h.Kern.Trace
	}
	return trace.EventsFrom(names, recs, l.eventsSince)
}
