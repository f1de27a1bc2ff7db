// Package repro reproduces "Latency Analysis of TCP on an ATM Network"
// (Wolman, Voelker, Thekkath; USENIX Winter 1994) as a deterministic
// discrete-event simulation of the paper's entire testbed: BSD 4.4 alpha
// TCP, the ULTRIX socket layer and mbufs, IP, the FORE TCA-100 ATM
// adapter with AAL3/4, a LANCE Ethernet, and the DECstation 5000/200 cost
// model the latencies are calibrated against.
//
// The library lives under internal/; see README.md for the layout, the
// quickstart, and how to regenerate each table and figure
// (paper-versus-measured output comes from cmd/tables),
// docs/ARCHITECTURE.md for the system design — the layer stack, sim
// engine, topology builder, workload engine, sweep engine, and the
// per-packet trace pipeline, with a diagram of a packet's life — and
// docs/METHODOLOGY.md for the measurement methodology: the exact
// command reproducing each published table, the §2.2 measurement
// windows, and the fixed-seed determinism contract. internal/runner
// shards the experiment grid across a worker pool with bit-identical
// results at any worker count.
//
// The simulator itself is engineered for wall-clock speed without
// moving a single simulated result: a value-based 4-ary event heap in
// internal/sim, mbuf header and cluster-page free-lists in
// internal/mbuf, table-driven CRCs and reusable per-frame scratch in
// the drivers, and preallocated trace buffers. Testbeds are reusable:
// a lab's lifecycle spans many trials — lab.Lab.Reset rebinds the
// assembled topology to each new configuration with bit-identical
// initial state, and the sweep engine runs worker-affine, every worker
// recycling its own cache of warm labs (runner.Testbeds) through its
// share of the grid. docs/PERFORMANCE.md is the playbook — profiling
// commands, the hot-path map with measured numbers, the testbed-reuse
// contract, and which gate holds each quantity; golden SHA-256 tests in
// cmd/tables, cmd/load, and cmd/pkttrace pin the simulated outputs byte
// for byte across such changes, and the bench/ module times them.
//
// Beyond the paper's two-host pair, internal/lab builds N-host
// topologies (a shared Ethernet segment or an output-queued ATM cell
// switch with a full virtual-channel mesh) and internal/workload drives
// them with pluggable traffic generators — echo, bulk transfer,
// request/response fan-in, and connection churn — driven from cmd/load
// and the fan-in/churn study in internal/core.
//
// The measurement pipeline is itself a subsystem: internal/trace
// records typed per-packet events at every layer crossing, joins them
// by on-wire identity into span trees, and exports Chrome trace_event
// JSON via cmd/pkttrace; the paper's breakdown tables are read from the
// same event stream.
package repro
