package atm

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/ip"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestCellHeaderRoundTrip(t *testing.T) {
	f := func(gfc, vpi uint8, vci uint16, pt uint8, clp bool) bool {
		h := CellHeader{GFC: gfc & 0xf, VPI: vpi, VCI: vci, PT: pt & 0x7, CLP: clp}
		var c Cell
		h.Marshal(&c)
		got, err := ParseHeader(&c)
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCellHeaderHECDetectsCorruption(t *testing.T) {
	var c Cell
	CellHeader{VCI: 32}.Marshal(&c)
	for i := 0; i < 4; i++ {
		for bit := 0; bit < 8; bit++ {
			c[i] ^= 1 << bit
			if _, err := ParseHeader(&c); err == nil {
				t.Fatalf("HEC missed flip at byte %d bit %d", i, bit)
			}
			c[i] ^= 1 << bit
		}
	}
}

func TestCellsForDatagram(t *testing.T) {
	cases := map[int]int{
		0:    1, // CPCS overhead alone
		1:    1,
		36:   1, // 36+8=44, exactly one cell
		37:   2, // padded to 40, +8 = 48 > 44
		4000: 92,
		8000: 182, // 8008/44 exactly
	}
	for n, want := range cases {
		if got := CellsForDatagram(n); got != want {
			t.Errorf("CellsForDatagram(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSegmentReassembleRoundTrip(t *testing.T) {
	rng := sim.NewRNG(3)
	var seg Segmenter
	seg.VCI = 32
	var re Reassembler
	f := func(n uint16) bool {
		size := int(n) % MaxDatagram
		data := make([]byte, size)
		rng.Fill(data)
		cells := seg.Segment(data)
		if len(cells) != CellsForDatagram(size) {
			return false
		}
		for i := range cells[:len(cells)-1] {
			dg, err := re.Push(&cells[i])
			if dg != nil || err != nil {
				return false
			}
		}
		dg, err := re.Push(&cells[len(cells)-1])
		return err == nil && dg != nil && bytes.Equal(dg, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentTooLargePanics(t *testing.T) {
	var seg Segmenter
	defer func() {
		if recover() == nil {
			t.Fatal("oversized datagram did not panic")
		}
	}()
	seg.Segment(make([]byte, MaxDatagram+1))
}

func TestReassemblerDetectsLostCell(t *testing.T) {
	var seg Segmenter
	var re Reassembler
	data := make([]byte, 500)
	cells := seg.Segment(data)
	if len(cells) < 3 {
		t.Fatal("want multi-cell frame")
	}
	// Drop a middle cell.
	gotErr := false
	for i := range cells {
		if i == 2 {
			continue
		}
		dg, err := re.Push(&cells[i])
		if err != nil {
			gotErr = true
		}
		if dg != nil {
			t.Fatal("reassembled despite a lost cell")
		}
	}
	if !gotErr {
		t.Fatal("lost cell not detected")
	}
	if re.Errors == 0 {
		t.Fatal("error counter not incremented")
	}
	// Recovery: the next whole frame must reassemble.
	cells2 := seg.Segment(data)
	var dg []byte
	for i := range cells2 {
		var err error
		dg, err = re.Push(&cells2[i])
		if err != nil {
			t.Fatalf("clean frame after loss failed: %v", err)
		}
	}
	if dg == nil {
		t.Fatal("clean frame after loss did not complete")
	}
}

func TestReassemblerDetectsPayloadCorruption(t *testing.T) {
	var seg Segmenter
	var re Reassembler
	data := make([]byte, 100)
	cells := seg.Segment(data)
	cells[0][7] ^= 0x40 // corrupt SAR payload
	sawErr := false
	for i := range cells {
		if _, err := re.Push(&cells[i]); err != nil {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("CRC-10 missed payload corruption")
	}
}

func TestReassemblerDetectsSplicedFrames(t *testing.T) {
	var seg Segmenter
	var re Reassembler
	a := seg.Segment(make([]byte, 200)) // 5 cells
	b := seg.Segment(make([]byte, 200))
	// Frame B's head replaced with frame A's head: Btag/SN mismatch must
	// prevent silent splicing.
	mixed := append(append([]Cell{}, a[:2]...), b[2:]...)
	ok := false
	for i := range mixed {
		dg, err := re.Push(&mixed[i])
		if err != nil {
			ok = true
		}
		if dg != nil {
			t.Fatal("spliced frame reassembled")
		}
	}
	if !ok {
		t.Fatal("splice undetected")
	}
}

func TestCRC10KnownProperties(t *testing.T) {
	var zero, a, b [PayloadSize]byte
	if crc10PDU(&zero) != 0 {
		t.Fatal("CRC-10 of the zero PDU != 0")
	}
	a[0], a[1], a[2] = 1, 2, 3
	b[0], b[1], b[2] = 1, 2, 4
	if crc10PDU(&a) == crc10PDU(&b) {
		t.Fatal("CRC-10 collision on adjacent inputs")
	}
	if crc10PDU(&a) > 0x3ff || crc10PDU(&b) > 0x3ff {
		t.Fatal("CRC-10 wider than 10 bits")
	}
}

// pushTx commits a ready-made cell the way the driver commits the one it
// cuts: take the transmit FIFO's next record, write it, launch it.
func pushTx(a *Adapter, c Cell) {
	slot := a.TxCell()
	*slot = c
	a.LaunchTx(slot)
}

// twoAdapters builds a connected adapter pair on one simulation.
func twoAdapters(t *testing.T) (*sim.Env, *kern.Kernel, *kern.Kernel, *Adapter, *Adapter) {
	t.Helper()
	env := sim.NewEnv()
	model := cost.DECstation5000()
	ka := kern.New(env, model, "a")
	kb := kern.New(env, model, "b")
	a, b := NewAdapter(ka), NewAdapter(kb)
	Connect(a, b)
	return env, ka, kb, a, b
}

func TestAdapterWirePacing(t *testing.T) {
	env, _, _, a, b := twoAdapters(t)
	var seg Segmenter
	cells := seg.Segment(make([]byte, 200))
	for _, c := range cells {
		pushTx(a, c)
	}
	env.Run()
	if b.RxAvail() != len(cells) {
		t.Fatalf("delivered %d of %d cells", b.RxAvail(), len(cells))
	}
	// Wire time: n cells at CellTime each plus propagation.
	want := sim.Time(len(cells))*a.CellTime() + a.K.Cost.ATMPropagation
	if env.Now() != want {
		t.Fatalf("delivery finished at %v, want %v", env.Now(), want)
	}
	if b.FramesPending() != 1 {
		t.Fatalf("FramesPending = %d, want 1", b.FramesPending())
	}
}

func TestAdapterTxFIFOLimit(t *testing.T) {
	_, _, _, a, _ := twoAdapters(t)
	var c Cell
	CellHeader{VCI: 32}.Marshal(&c)
	for i := 0; i < TxFIFOCells; i++ {
		pushTx(a, c)
	}
	if a.TxSpace() != 0 {
		t.Fatalf("TxSpace = %d after filling", a.TxSpace())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("push into full FIFO did not panic")
		}
	}()
	pushTx(a, c)
}

func TestAdapterRxOverflowDropsCells(t *testing.T) {
	env, _, _, a, b := twoAdapters(t)
	var seg Segmenter
	// Push far more cells than the 292-cell receive FIFO without
	// draining b; excess must be dropped and counted.
	for i := 0; i < 10; i++ {
		cells := seg.Segment(make([]byte, 1400))
		for _, c := range cells {
			for a.TxSpace() == 0 {
				env.Step()
			}
			pushTx(a, c)
		}
	}
	env.Run()
	if b.RxAvail() != RxFIFOCells {
		t.Fatalf("rx FIFO holds %d, want cap %d", b.RxAvail(), RxFIFOCells)
	}
	if b.RxOverflows == 0 || b.CellsDropped == 0 {
		t.Fatal("overflow not counted")
	}
}

// TestReorderHeldCellFlushed pins the hold-back backstop: a cell held
// for reordering on a link that then goes quiet must be released by the
// flush timer, not stranded forever as silent uncounted loss (e.g. the
// final cell of a teardown segment, with no retransmission to flush it).
func TestReorderHeldCellFlushed(t *testing.T) {
	env, _, _, a, b := twoAdapters(t)
	b.SetImpairments(sim.GEParams{}, 1.0, 4, 7) // hold every arrival
	var c Cell
	CellHeader{VCI: 32}.Marshal(&c)
	pushTx(a, c) // the link's only traffic
	env.Run()
	if b.RxAvail() != 1 {
		t.Fatalf("RxAvail = %d, want 1 (held cell flushed on idle link)", b.RxAvail())
	}
	if b.CellsReordered != 1 {
		t.Fatalf("CellsReordered = %d, want 1", b.CellsReordered)
	}
}

// TestWireFlipNamesItsCell pins what a scheduled wire flip does: bit b of
// the stream launched from the moment it is armed is bit b%424 of the
// cell b/424 after those already launched, counted from the most
// significant bit of the first byte, and nothing else moves. Two flips
// may name one cell; the flipped cells alone are counted.
func TestWireFlipNamesItsCell(t *testing.T) {
	const cells = 8
	env, _, _, a, b := twoAdapters(t)
	var sent [cells]Cell
	for i := range sent {
		CellHeader{VCI: 32}.Marshal(&sent[i])
		sent[i].Payload()[1] = byte(i)
	}
	pushTx(a, sent[0])
	a.FlipLaunched(0)             // cell 1's first bit
	a.FlipLaunched(2*424 + 47)    // cell 3, its first payload byte's last bit
	a.FlipLaunched(2*424 + 423)   // cell 3's last bit
	a.FlipLaunched(5*424 + 40)    // cell 6's first payload bit
	a.FlipLaunched(cells*424 + 1) // past the stream: never launched
	for _, c := range sent[1:] {
		pushTx(a, c)
	}
	env.Run()
	want := map[[2]int]bool{{1, 0}: true, {3, 47}: true, {3, 423}: true, {6, 40}: true}
	for i := range sent {
		c, ok := b.PopRx()
		if !ok {
			t.Fatalf("cell %d of %d never arrived", i, cells)
		}
		for bit := 0; bit < CellSize*8; bit++ {
			flipped := (c[bit/8]^sent[i][bit/8])&(0x80>>(bit%8)) != 0
			if flipped != want[[2]int{i, bit}] {
				t.Errorf("cell %d bit %d: flipped %v, want %v", i, bit, flipped, !flipped)
			}
		}
	}
	if a.CellsCorrupted != 3 {
		t.Errorf("CellsCorrupted = %d, want 3", a.CellsCorrupted)
	}
}

func TestAdapterDropNext(t *testing.T) {
	env, _, _, a, b := twoAdapters(t)
	b.DropNext()
	var c Cell
	CellHeader{VCI: 32}.Marshal(&c)
	pushTx(a, c)
	pushTx(a, c)
	env.Run()
	if b.RxAvail() != 1 {
		t.Fatalf("RxAvail = %d, want 1 (first cell dropped)", b.RxAvail())
	}
	if b.CellsDropped != 1 {
		t.Fatalf("CellsDropped = %d", b.CellsDropped)
	}
}

// buildStack wires adapter+driver+ip+sink for driver-level tests.
type sinkHandler struct {
	got [][]byte
}

func (s *sinkHandler) Input(p *sim.Proc, h ip.Header, m *mbuf.Mbuf) {
	s.got = append(s.got, mbuf.Linearize(m))
}

func TestDriverEndToEndDatagram(t *testing.T) {
	env := sim.NewEnv()
	model := cost.DECstation5000()
	ka := kern.New(env, model, "a")
	kb := kern.New(env, model, "b")
	ipa := ip.NewStack(ka, 1)
	ipb := ip.NewStack(kb, 2)
	aa, ab := NewAdapter(ka), NewAdapter(kb)
	Connect(aa, ab)
	NewDriver(ka, aa, ipa)
	db := NewDriver(kb, ab, ipb)
	sink := &sinkHandler{}
	ipb.Register(99, sink)

	payload := make([]byte, 3000)
	env.RNG().Fill(payload)
	env.Spawn("sender", sim.Steps(func(p *sim.Proc) {
		m := ka.Pool.AllocCluster()
		m.Append(payload)
		ipa.Output(p, 2, 99, m)
	}))
	env.Run()
	if len(sink.got) != 1 {
		t.Fatalf("delivered %d datagrams, want 1", len(sink.got))
	}
	if !bytes.Equal(sink.got[0], payload) {
		t.Fatal("payload corrupted in transit")
	}
	if db.FramesIn != 1 {
		t.Fatalf("FramesIn = %d", db.FramesIn)
	}
}

func TestDriverChargesATMLayer(t *testing.T) {
	env := sim.NewEnv()
	model := cost.DECstation5000()
	ka := kern.New(env, model, "a")
	kb := kern.New(env, model, "b")
	for _, k := range []*kern.Kernel{ka, kb} {
		k.Trace.EnablePackets()
	}
	ipa := ip.NewStack(ka, 1)
	ipb := ip.NewStack(kb, 2)
	aa, ab := NewAdapter(ka), NewAdapter(kb)
	Connect(aa, ab)
	NewDriver(ka, aa, ipa)
	NewDriver(kb, ab, ipb)
	ipb.Register(99, &sinkHandler{})

	env.Spawn("sender", sim.Steps(func(p *sim.Proc) {
		m := ka.Pool.Alloc()
		m.Append(make([]byte, 50))
		ipa.Output(p, 2, 99, m)
	}))
	env.Run()

	txSum := sim.Time(0)
	for _, e := range ka.Trace.Events() {
		if e.Kind == trace.EvCPU && e.Layer == trace.LayerATMTx {
			txSum += e.Dur
		}
	}
	// 70-byte datagram: 2 cells. Expect frame fixed + 2 per-cell.
	want := model.ATMTxFrameFixed + 2*model.ATMTxPerCell
	if txSum != want {
		t.Fatalf("ATM tx charge %v, want %v", txSum, want)
	}
	rxSum := sim.Time(0)
	for _, e := range kb.Trace.Events() {
		if e.Kind == trace.EvCPU && e.Layer == trace.LayerATMRx {
			rxSum += e.Dur
		}
	}
	// Frame fixed + 2 per-cell + 2 mbuf allocations (header mbuf and
	// payload mbuf) charged by deliver.
	wantRx := model.ATMRxFrameFixed + 2*model.ATMRxPerCell + 2*model.MbufAlloc
	if rxSum != wantRx {
		t.Fatalf("ATM rx charge %v, want %v", rxSum, wantRx)
	}
}

func TestDriverRecoversAfterCellLoss(t *testing.T) {
	env := sim.NewEnv()
	model := cost.DECstation5000()
	ka := kern.New(env, model, "a")
	kb := kern.New(env, model, "b")
	ipa := ip.NewStack(ka, 1)
	ipb := ip.NewStack(kb, 2)
	aa, ab := NewAdapter(ka), NewAdapter(kb)
	Connect(aa, ab)
	NewDriver(ka, aa, ipa)
	db := NewDriver(kb, ab, ipb)
	sink := &sinkHandler{}
	ipb.Register(99, sink)

	ab.DropNext() // lose the first cell of datagram 1
	// Alternating steps: even iterations transmit, odd ones space the two
	// datagrams apart (each blocking action must end its own step).
	env.Spawn("sender", sim.LoopN(4, func(p *sim.Proc, i int) {
		if i%2 == 0 {
			m := ka.Pool.AllocCluster()
			m.Append(make([]byte, 2000))
			ipa.Output(p, 2, 99, m)
		} else {
			p.Sleep(5 * sim.Millisecond)
		}
	}))
	env.Run()
	if len(sink.got) != 1 {
		t.Fatalf("delivered %d datagrams, want 1 (first lost)", len(sink.got))
	}
	if db.ReassemblyErrors == 0 {
		t.Fatal("loss not surfaced as reassembly error")
	}
}

// TestHECErrorOnFrameEndConsumesPending pins the bookkeeping fix for
// corrupted frame-end cells: when the HEC rejects a cell whose payload
// marks end-of-frame, the driver must still consume the adapter's
// pending-frame count and queued arrival stamp. Otherwise both stay
// desynchronized forever and every later frame's wire-arrival event is
// stamped with the previous frame's time.
func TestHECErrorOnFrameEndConsumesPending(t *testing.T) {
	env := sim.NewEnv()
	model := cost.DECstation5000()
	ka := kern.New(env, model, "a")
	kb := kern.New(env, model, "b")
	kb.Trace.EnablePackets()
	ipa := ip.NewStack(ka, 1)
	ipb := ip.NewStack(kb, 2)
	aa, ab := NewAdapter(ka), NewAdapter(kb)
	Connect(aa, ab)
	NewDriver(ka, aa, ipa)
	db := NewDriver(kb, ab, ipb)
	sink := &sinkHandler{}
	ipb.Register(99, sink)

	// First frame: single-cell datagram whose header is corrupted on
	// the wire — the HEC rejects it at the driver, but its payload
	// still reads as frame-end at the adapter.
	var seg Segmenter
	seg.VCI = DefaultVCI
	small := make([]byte, 20)
	cells := seg.Segment(small)
	if len(cells) != 1 || !IsFrameEnd(&cells[0]) {
		t.Fatalf("expected one frame-end cell, got %d", len(cells))
	}
	cells[0][0] ^= 0x01 // header bit flip: caught by the HEC
	ab.receive(&cells[0], env.Now())
	env.Run()
	if db.HECErrors != 1 {
		t.Fatalf("HECErrors = %d, want 1", db.HECErrors)
	}
	if got := ab.FramesPending(); got != 0 {
		t.Fatalf("FramesPending = %d after HEC-discarded frame end", got)
	}
	if got := ab.RxAvail(); got != 0 || ab.rxFIFO.buf != nil {
		t.Fatalf("receive FIFO holds %d cells (buffer held: %v) after the drain", got, ab.rxFIFO.buf != nil)
	}

	// Second frame: a clean datagram, its cells injected at a known
	// time, must carry its own arrival time, not the corrupted frame's.
	payload := make([]byte, 200)
	env.RNG().Fill(payload)
	dgram := make([]byte, ip.HeaderLen+len(payload))
	(&ip.Header{TotalLen: len(dgram), TTL: 4, Proto: 99, Src: 1, Dst: 2}).Marshal(dgram)
	copy(dgram[ip.HeaderLen:], payload)
	clean := seg.Segment(dgram)
	const arrival = sim.Millisecond
	env.At(arrival, "inject", func() {
		for i := range clean {
			ab.receive(&clean[i], env.Now())
		}
	})
	env.Run()
	if len(sink.got) != 1 || !bytes.Equal(sink.got[0], payload) {
		t.Fatalf("delivered %d datagrams, want the clean one", len(sink.got))
	}
	var arrive []trace.Event
	for _, e := range kb.Trace.Events() {
		if e.Kind == trace.EvWireArrive {
			arrive = append(arrive, e)
		}
	}
	if len(arrive) != 1 {
		t.Fatalf("EvWireArrive events = %d, want 1", len(arrive))
	}
	if arrive[0].At != arrival {
		t.Fatalf("wire-arrival stamped %v, want the frame's own arrival %v", arrive[0].At, arrival)
	}
}

// TestCRCTablesMatchBitwiseReference pins the table-driven CRC-10 and
// HEC to the bit-at-a-time reference implementations: the tables are a
// wall-clock optimization and must compute identical values, or cells
// would stop reassembling and corruption detection would drift.
func TestCRCTablesMatchBitwiseReference(t *testing.T) {
	rng := sim.NewRNG(11)
	var b [PayloadSize]byte
	for trial := 0; trial < 200; trial++ {
		rng.Fill(b[:])
		if got, want := crc10PDU(&b), crc10Bitwise(b[:], crcBits); got != want {
			t.Fatalf("crc10PDU = %#x, bitwise reference %#x", got, want)
		}
		if got, want := hec(b[:4:4]), hecBitwise(b[:4:4]); got != want {
			t.Fatalf("hec = %#x, bitwise reference %#x", got, want)
		}
	}
}

// TestSegmentAppendMatchesSegment proves the scratch-reusing transmit
// path produces bit-identical cells to the allocating public API, and
// that reusing the scratch across datagrams cannot leak bytes of an
// earlier, larger datagram into a later one's padding.
func TestSegmentAppendMatchesSegment(t *testing.T) {
	rng := sim.NewRNG(12)
	var fresh, reuse Segmenter
	fresh.VCI, reuse.VCI = 32, 32
	var scratch []Cell
	for _, size := range []int{4000, 37, 1400, 5, 0, 8000, 1} {
		data := make([]byte, size)
		rng.Fill(data)
		want := fresh.Segment(data)
		scratch = reuse.SegmentAppend(scratch[:0], data)
		if len(want) != len(scratch) {
			t.Fatalf("size %d: %d cells vs %d", size, len(scratch), len(want))
		}
		// The header is marshalled once a datagram and copied into each
		// cell; every copy must be what Marshal writes, HEC included.
		var hdr Cell
		CellHeader{VCI: 32}.Marshal(&hdr)
		for i := range want {
			if want[i] != scratch[i] {
				t.Fatalf("size %d: cell %d differs between Segment and SegmentAppend", size, i)
			}
			if !bytes.Equal(want[i][:5], hdr[:5]) {
				t.Fatalf("size %d: cell %d header % x, Marshal writes % x", size, i, want[i][:5], hdr[:5])
			}
		}
	}
}
