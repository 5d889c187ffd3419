package nic

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/cheri"
	"repro/internal/hostos"
	"repro/internal/sim"
)

// ringLayout is a hand-built descriptor ring for driver-less tests.
type ringLayout struct {
	descBase uint64
	bufBase  uint64
	n        uint32
	bufSize  uint64
}

// install programs the ring's descriptors to point at its buffers.
func (r *ringLayout) install(t testing.TB, mem *cheri.TMem) {
	t.Helper()
	for i := uint32(0); i < r.n; i++ {
		s, err := mem.RawSlice(r.descBase+uint64(i)*DescSize, DescSize)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint64(s[0:8], r.bufBase+uint64(i)*r.bufSize)
		for j := 8; j < DescSize; j++ {
			s[j] = 0
		}
	}
}

type bench struct {
	mem  *cheri.TMem
	clk  *sim.VClock
	a, b *Port
	atx  ringLayout
	arx  ringLayout
	btx  ringLayout
	brx  ringLayout
}

func newBench(t testing.TB, busRate float64) *bench {
	t.Helper()
	mem := cheri.NewTMem(1 << 22)
	clk := sim.NewVClock()
	mk := func(bdf string, mac byte) *Card {
		c, err := New(Config{
			BDFBase:     bdf,
			Ports:       1,
			LineRateBps: 1e9,
			BusRateBps:  busRate,
			BusCostTX:   1.0,
			BusCostRX:   1.16,
			MAC:         [6]byte{2, 0, 0, 0, 0, mac},
			Clk:         clk,
			Mem:         mem,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ca := mk("0000:03:00", 1)
	cb := mk("0000:04:00", 2)
	a, b := ca.Port(0), cb.Port(0)
	Connect(a, b)

	be := &bench{mem: mem, clk: clk, a: a, b: b}
	// Carve four rings + buffers out of memory.
	const nDesc = 64
	const bufSize = 2048
	next := uint64(0x1000)
	carve := func() ringLayout {
		r := ringLayout{descBase: next, n: nDesc, bufSize: bufSize}
		next += nDesc * DescSize
		r.bufBase = next
		next += nDesc * bufSize
		r.install(t, mem)
		return r
	}
	be.atx, be.arx, be.btx, be.brx = carve(), carve(), carve(), carve()

	program := func(p *Port, tx, rx ringLayout) {
		p.RegWrite32(RegTDBAL, uint32(tx.descBase))
		p.RegWrite32(RegTDBAH, uint32(tx.descBase>>32))
		p.RegWrite32(RegTDLEN, tx.n*DescSize)
		p.RegWrite32(RegTDH, 0)
		p.RegWrite32(RegTDT, 0)
		p.RegWrite32(RegRDBAL, uint32(rx.descBase))
		p.RegWrite32(RegRDBAH, uint32(rx.descBase>>32))
		p.RegWrite32(RegRDLEN, rx.n*DescSize)
		p.RegWrite32(RegRDH, 0)
		p.RegWrite32(RegRDT, rx.n-1) // all but one descriptor free
		p.RegWrite32(RegRCTL, RctlEN)
		p.RegWrite32(RegTCTL, TctlEN)
	}
	program(a, be.atx, be.arx)
	program(b, be.btx, be.brx)
	return be
}

// queueTX writes a frame into the sender's next TX slot and bumps TDT.
func (be *bench) queueTX(t testing.TB, p *Port, r ringLayout, payload []byte) {
	t.Helper()
	tdt := p.RegRead32(RegTDT)
	bufAddr := r.bufBase + uint64(tdt)*r.bufSize
	s, err := be.mem.RawSlice(bufAddr, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	copy(s, payload)
	d, err := be.mem.RawSlice(r.descBase+uint64(tdt)*DescSize, DescSize)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(d[0:8], bufAddr)
	binary.LittleEndian.PutUint16(d[8:10], uint16(len(payload)))
	d[11] = TxCmdEOP | TxCmdRS
	d[12] = 0
	p.RegWrite32(RegTDT, (tdt+1)%r.n)
}

// rxHarvest collects completed RX descriptors from r starting at *next.
func (be *bench) rxHarvest(t testing.TB, p *Port, r ringLayout, next *uint32) [][]byte {
	t.Helper()
	var out [][]byte
	for {
		d, err := be.mem.RawSlice(r.descBase+uint64(*next)*DescSize, DescSize)
		if err != nil {
			t.Fatal(err)
		}
		if d[12]&StatDD == 0 {
			return out
		}
		length := binary.LittleEndian.Uint16(d[8:10])
		buf, err := be.mem.RawSlice(binary.LittleEndian.Uint64(d[0:8]), int(length))
		if err != nil {
			t.Fatal(err)
		}
		cp := make([]byte, length)
		copy(cp, buf)
		out = append(out, cp)
		d[12] = 0 // recycle
		*next = (*next + 1) % r.n
		p.RegWrite32(RegRDT, (p.RegRead32(RegRDT)+1)%r.n)
	}
}

func step(be *bench, ticks int, tickNS int64) {
	for i := 0; i < ticks; i++ {
		be.a.Step()
		be.b.Step()
		be.clk.Advance(tickNS)
	}
}

func TestPCIIdentity(t *testing.T) {
	be := newBench(t, 0)
	if be.a.VendorID() != 0x8086 || be.a.DeviceID() != 0x10C9 {
		t.Fatalf("PCI ids: %04x:%04x", be.a.VendorID(), be.a.DeviceID())
	}
	if be.a.BDF() != "0000:03:00.0" {
		t.Fatalf("BDF = %s", be.a.BDF())
	}
	if be.a.RegRead32(RegSTATUS)&StatusLU == 0 {
		t.Fatal("link must be up after Connect")
	}
	// MAC is readable through RAL/RAH.
	ral, rah := be.a.RegRead32(RegRAL0), be.a.RegRead32(RegRAH0)
	mac := be.a.MAC()
	if byte(ral) != mac[0] || byte(ral>>24) != mac[3] || byte(rah) != mac[4] {
		t.Fatalf("RAL/RAH mismatch: %08x %08x vs %v", ral, rah, mac)
	}
}

func TestFrameDelivery(t *testing.T) {
	be := newBench(t, 0)
	payload := bytes.Repeat([]byte{0xAB}, 100)
	payload[0] = 1 // make it distinctive
	be.queueTX(t, be.a, be.atx, payload)
	step(be, 20, 2000) // 40 µs
	var next uint32
	got := be.rxHarvest(t, be.b, be.brx, &next)
	if len(got) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(got))
	}
	if !bytes.Equal(got[0], payload) {
		t.Fatalf("payload corrupted: %x", got[0][:8])
	}
	// Statistics updated on both sides.
	if be.a.RegRead32(RegGPTC) != 1 || be.b.RegRead32(RegGPRC) != 1 {
		t.Fatalf("GPTC=%d GPRC=%d", be.a.RegRead32(RegGPTC), be.b.RegRead32(RegGPRC))
	}
	if be.a.RegRead32(RegGOTCL) != 100 || be.b.RegRead32(RegGORCL) != 100 {
		t.Fatalf("octet counters wrong")
	}
}

func TestPropagationDelay(t *testing.T) {
	be := newBench(t, 0)
	be.queueTX(t, be.a, be.atx, make([]byte, 64))
	be.a.Step() // transmit at t=0; wire time 64+24 bytes = 704 ns + 500 ns
	be.b.Step() // too early: nothing arrives at t=0
	var next uint32
	if got := be.rxHarvest(t, be.b, be.brx, &next); len(got) != 0 {
		t.Fatalf("frame arrived instantaneously")
	}
	be.clk.Advance(704 + PropagationDelayNS + 1)
	be.b.Step()
	if got := be.rxHarvest(t, be.b, be.brx, &next); len(got) != 1 {
		t.Fatal("frame did not arrive after line+propagation time")
	}
}

func TestLineRatePacing(t *testing.T) {
	be := newBench(t, 0)
	// Saturate: keep the TX ring full of 1514-byte frames for 20 ms.
	sent := 0
	var next uint32
	recv := 0
	frame := make([]byte, 1514)
	for be.clk.Now() < 20e6 {
		// Top up the ring.
		for {
			tdt := be.a.RegRead32(RegTDT)
			tdh := be.a.RegRead32(RegTDH)
			if (tdt+1)%be.atx.n == tdh {
				break
			}
			be.queueTX(t, be.a, be.atx, frame)
			sent++
			if sent > 100000 {
				t.Fatal("runaway")
			}
		}
		step(be, 1, 5000)
		recv += len(be.rxHarvest(t, be.b, be.brx, &next))
	}
	// Wire-rate ceiling: 20 ms / ((1514+24)*8ns) = 1625 frames.
	want := int(20e6) / ((1514 + wireOverhead) * 8)
	if recv < want*95/100 || recv > want {
		t.Fatalf("received %d frames in 20ms, want ≈%d (line-limited)", recv, want)
	}
}

func TestBusLimitsThroughput(t *testing.T) {
	// Bus at half the line's byte rate: delivery must be bus-limited.
	be := newBench(t, 0.5e9)
	var next uint32
	recv := 0
	frame := make([]byte, 1514)
	for be.clk.Now() < 20e6 {
		for {
			tdt := be.a.RegRead32(RegTDT)
			tdh := be.a.RegRead32(RegTDH)
			if (tdt+1)%be.atx.n == tdh {
				break
			}
			be.queueTX(t, be.a, be.atx, frame)
		}
		step(be, 1, 5000)
		recv += len(be.rxHarvest(t, be.b, be.brx, &next))
	}
	lineLimit := int(20e6) / ((1514 + wireOverhead) * 8)
	busLimit := lineLimit / 2
	if recv > busLimit*110/100 {
		t.Fatalf("received %d frames, want bus-limited ≈%d", recv, busLimit)
	}
	if recv < busLimit*80/100 {
		t.Fatalf("received %d frames, far below bus limit %d", recv, busLimit)
	}
}

func TestRxFifoTailDrop(t *testing.T) {
	be := newBench(t, 0)
	// Receiver never posts descriptors beyond the initial ones and never
	// steps: blast frames until the FIFO overflows.
	frame := make([]byte, 1514)
	for i := 0; i < 100; i++ {
		be.queueTX(t, be.a, be.atx, frame)
		be.a.Step()
		be.clk.Advance(13000)
	}
	if be.b.Missed() == 0 {
		t.Fatal("expected tail drops on a stalled receiver")
	}
	if be.b.PendingRX() > RxFifoBytes/1514+1 {
		t.Fatalf("FIFO holds %d frames, beyond its byte limit", be.b.PendingRX())
	}
	if be.b.RegRead32(RegMPC) == 0 {
		t.Fatal("MPC must report misses")
	}
}

func TestMalformedDescriptorConsumed(t *testing.T) {
	be := newBench(t, 0)
	// Zero-length descriptor: consumed without transmission.
	tdt := be.a.RegRead32(RegTDT)
	d, _ := be.mem.RawSlice(be.atx.descBase+uint64(tdt)*DescSize, DescSize)
	binary.LittleEndian.PutUint64(d[0:8], be.atx.bufBase)
	binary.LittleEndian.PutUint16(d[8:10], 0)
	d[11] = TxCmdEOP
	be.a.RegWrite32(RegTDT, (tdt+1)%be.atx.n)
	step(be, 5, 2000)
	if be.a.RegRead32(RegTDH) != (tdt+1)%be.atx.n {
		t.Fatal("malformed descriptor not consumed")
	}
	if be.a.RegRead32(RegGPTC) != 0 {
		t.Fatal("malformed descriptor counted as transmitted")
	}
	if d[12]&StatDD == 0 {
		t.Fatal("DD not written back for malformed descriptor")
	}
}

func TestDisabledQueuesIdle(t *testing.T) {
	be := newBench(t, 0)
	be.a.RegWrite32(RegTCTL, 0) // disable TX
	be.queueTX(t, be.a, be.atx, make([]byte, 64))
	step(be, 5, 2000)
	if be.a.RegRead32(RegGPTC) != 0 {
		t.Fatal("disabled TX queue transmitted")
	}
	be.a.RegWrite32(RegTCTL, TctlEN)
	step(be, 5, 2000)
	if be.a.RegRead32(RegGPTC) != 1 {
		t.Fatal("re-enabled TX queue did not transmit")
	}
}

func TestDeviceReset(t *testing.T) {
	be := newBench(t, 0)
	be.queueTX(t, be.a, be.atx, make([]byte, 64))
	step(be, 5, 2000)
	be.a.RegWrite32(RegCTRL, CtrlRST)
	if be.a.RegRead32(RegGPTC) != 0 {
		t.Fatal("reset did not clear statistics")
	}
	if be.a.RegRead32(RegTDLEN) != 0 {
		t.Fatal("reset did not clear ring registers")
	}
	if be.a.RegRead32(RegSTATUS)&StatusLU == 0 {
		t.Fatal("reset must not drop the physical link")
	}
}

func TestCapabilityDMAConfinement(t *testing.T) {
	mem := cheri.NewTMem(1 << 22)
	clk := sim.NewVClock()
	card, err := New(Config{
		BDFBase:     "0000:03:00",
		Ports:       2,
		LineRateBps: 1e9,
		MAC:         [6]byte{2, 0, 0, 0, 0, 9},
		Clk:         clk,
		Mem:         mem,
		CapDMA:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := card.Port(0), card.Port(1)
	Connect(a, b)
	// Grant port A a DMA window that does NOT include the TX ring we
	// program: the device must refuse to fetch descriptors from outside
	// its IOMMU window.
	win, err := mem.Root().SetAddr(0x100000).SetBounds(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	dcap, err := win.AndPerms(cheri.PermLoad | cheri.PermStore)
	if err != nil {
		t.Fatal(err)
	}
	a.SetDMACap(dcap)
	b.SetDMACap(dcap)

	r := ringLayout{descBase: 0x1000, bufBase: 0x2000, n: 8, bufSize: 2048}
	r.install(t, mem)
	a.RegWrite32(RegTDBAL, uint32(r.descBase))
	a.RegWrite32(RegTDLEN, r.n*DescSize)
	a.RegWrite32(RegTCTL, TctlEN)
	d, _ := mem.RawSlice(r.descBase, DescSize)
	binary.LittleEndian.PutUint64(d[0:8], r.bufBase)
	binary.LittleEndian.PutUint16(d[8:10], 64)
	d[11] = TxCmdEOP
	a.RegWrite32(RegTDT, 1)
	a.Step()
	if a.RegRead32(RegGPTC) != 0 {
		t.Fatal("device DMAed outside its capability window")
	}
}

func TestDualPortMACs(t *testing.T) {
	mem := cheri.NewTMem(1 << 20)
	clk := sim.NewVClock()
	card, err := New(Config{
		BDFBase: "0000:03:00", Ports: 2, LineRateBps: 1e9,
		MAC: [6]byte{2, 0, 0, 0, 0, 0x10}, Clk: clk, Mem: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	m0, m1 := card.Port(0).MAC(), card.Port(1).MAC()
	if m0 == m1 {
		t.Fatal("ports must have distinct MACs")
	}
	if m1[5] != m0[5]+1 {
		t.Fatalf("MAC numbering: %v %v", m0, m1)
	}
	if card.Ports() != 2 {
		t.Fatal("port count")
	}
}

func TestRegisterPCI(t *testing.T) {
	k, err := hostos.NewKernel(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	mem := cheri.NewTMem(1 << 20)
	card, err := New(Config{
		BDFBase: "0000:03:00", Ports: 2, LineRateBps: 1e9,
		MAC: [6]byte{2, 0, 0, 0, 0, 1}, Clk: sim.NewVClock(), Mem: mem,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := card.RegisterPCI(k.PCI); err != nil {
		t.Fatal(err)
	}
	if len(k.PCI.Devices()) != 2 {
		t.Fatalf("registered %d devices", len(k.PCI.Devices()))
	}
	if errno := k.PCI.Unbind("0000:03:00.0"); errno != hostos.OK {
		t.Fatal(errno)
	}
	if _, errno := k.PCI.Claim("0000:03:00.0"); errno != hostos.OK {
		t.Fatal(errno)
	}
}

func TestBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config must fail")
	}
	if _, err := New(Config{Ports: 1}); err == nil {
		t.Fatal("missing line rate must fail")
	}
	if _, err := New(Config{Ports: 1, LineRateBps: 1e9}); err == nil {
		t.Fatal("missing clock/mem must fail")
	}
}
