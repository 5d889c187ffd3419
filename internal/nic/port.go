package nic

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/cheri"
	"repro/internal/hostos"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// wireOverhead is the per-frame on-the-wire overhead beyond the frame
// bytes handed to the device: preamble+SFD (8) + FCS (4) + inter-frame
// gap (12). With 1538 wire bytes per 1448-byte TCP payload this yields
// the canonical 941 Mbit/s GbE goodput ceiling.
const wireOverhead = 24

// maxBurst bounds ring processing per Step call (per queue).
const maxBurst = 64

// maxFrame is the largest frame the device accepts (MTU 1500 plus
// Ethernet header; no jumbo support, like the paper's setup).
const maxFrame = 1514

// Port is one Ethernet port (one PCI function) of a card. It implements
// hostos.PCIDevice.
type Port struct {
	card  *Card
	idx   int
	bdf   string
	mac   [6]byte
	clk   hostos.Clock
	mem   *cheri.TMem
	arena *FrameArena
	line  *sim.Serializer

	// fifos are the per-RX-queue slices of the receive packet buffer;
	// the RSS classifier picks one per arriving frame (queue 0 when RSS
	// is off, so the single-queue model is unchanged).
	fifos [MaxQueues]rxFifo

	pipe    Conduit
	pipeEnd int

	capDMA bool
	dmaCap cheri.Cap

	mu   sync.Mutex
	regs portRegs

	// Fault injection (the Scenario 10 fault plane). stalled queues are
	// skipped by Step and excluded from NextDeadline (guarded by mu);
	// dmaFaults budgets injected DMA failures consumed by dmaRO/dmaRW —
	// atomics, because the DMA helpers run without p.mu held.
	stalled    [MaxQueues]bool
	dmaFaults  atomic.Int64
	dmaFaulted atomic.Uint64

	// statistics (guarded by mu)
	gprc, gptc uint64 // good packets
	gorc, gotc uint64 // good octets

	// observability sinks (guarded by mu, nil = off; see internal/obs).
	// Every hook below nil-checks its sink, so a port without
	// observability runs the exact datapath it always has.
	obsTr  *obs.Trace
	obsDP  *stats.Histogram
	obsSrc uint16
	rxTap  func(tsNS int64, data []byte)
}

// queueRegs is one RX or TX queue's descriptor-ring register bank.
type queueRegs struct {
	bal, bah, length, head, tail uint32
}

// portRegs is the software-visible register file. Queue 0 of rxq/txq is
// aliased by the legacy RDxx/TDxx offsets.
type portRegs struct {
	ctrl, status uint32
	rctl, tctl   uint32

	rxq [MaxQueues]queueRegs
	txq [MaxQueues]queueRegs

	mrqc   uint32
	reta   [RetaEntries]byte
	rssKey [RSSKeyLen]byte
}

// Attach connects the port to one endpoint of a conduit and raises
// link-up. nic.Connect uses it for the direct cable; impairment
// pipelines (internal/netem) attach themselves the same way.
func (p *Port) Attach(c Conduit, end int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pipe = c
	p.pipeEnd = end
	p.regs.status |= StatusLU
}

// SetObs installs the port's flight recorder and datapath-latency
// histogram (nil disables either); src tags the port's trace events.
func (p *Port) SetObs(tr *obs.Trace, dp *stats.Histogram, src uint16) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.obsTr, p.obsDP, p.obsSrc = tr, dp, src
}

// SetRxTap installs (or, with nil, removes) a delivery observer: fn
// sees every frame the conduit hands this port, before FIFO admission
// — so what the tap captures is exactly what survived the link, and
// impairment drops show as gaps. The tap runs synchronously, possibly
// under the conduit's lock, so it must not call into the conduit, and
// it must not retain data (the bytes return to the frame arena after
// DMA); a pcap writer, which copies into its output stream, is the
// intended consumer.
func (p *Port) SetRxTap(fn func(tsNS int64, data []byte)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rxTap = fn
}

// BDF returns the port's PCI address.
func (p *Port) BDF() string { return p.bdf }

// Arena returns the frame arena this port allocates from and frees to.
// An impairment pipeline attached to the port frees dropped frames into
// the same arena.
func (p *Port) Arena() *FrameArena { return p.arena }

// VendorID returns Intel's PCI vendor id.
func (p *Port) VendorID() uint16 { return 0x8086 }

// DeviceID returns the 82576 device id.
func (p *Port) DeviceID() uint16 { return 0x10C9 }

// MAC returns the port's hardware address.
func (p *Port) MAC() [6]byte { return p.mac }

// SetDMACap grants the port its DMA window (IOMMU programming). Only
// meaningful in capability-DMA mode.
func (p *Port) SetDMACap(c cheri.Cap) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dmaCap = c
}

// queueReg resolves a per-queue bank offset to the queue register it
// addresses, or nil when off is not a queue register.
func (p *Port) queueReg(off uint64) *uint32 {
	var bank *[MaxQueues]queueRegs
	var rel uint64
	switch {
	case off >= RegRXQBase && off < RegRXQBase+MaxQueues*RegQStride:
		bank, rel = &p.regs.rxq, off-RegRXQBase
	case off >= RegTXQBase && off < RegTXQBase+MaxQueues*RegQStride:
		bank, rel = &p.regs.txq, off-RegTXQBase
	default:
		return nil
	}
	q := &bank[rel/RegQStride]
	switch rel % RegQStride {
	case regQBAL:
		return &q.bal
	case regQBAH:
		return &q.bah
	case regQLEN:
		return &q.length
	case regQH:
		return &q.head
	case regQT:
		return &q.tail
	}
	return nil
}

// legacyAlias maps the legacy single-queue offsets onto queue 0's banks.
func legacyAlias(off uint64) (uint64, bool) {
	switch off {
	case RegRDBAL:
		return RegRDBALQ(0), true
	case RegRDBAH:
		return RegRDBAHQ(0), true
	case RegRDLEN:
		return RegRDLENQ(0), true
	case RegRDH:
		return RegRDHQ(0), true
	case RegRDT:
		return RegRDTQ(0), true
	case RegTDBAL:
		return RegTDBALQ(0), true
	case RegTDBAH:
		return RegTDBAHQ(0), true
	case RegTDLEN:
		return RegTDLENQ(0), true
	case RegTDH:
		return RegTDHQ(0), true
	case RegTDT:
		return RegTDTQ(0), true
	}
	return off, false
}

// RegRead32 implements MMIO reads.
func (p *Port) RegRead32(off uint64) uint32 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if alias, ok := legacyAlias(off); ok {
		off = alias
	}
	if r := p.queueReg(off); r != nil {
		return *r
	}
	switch {
	case off >= RegRETA && off < RegRETA+RetaEntries:
		i := int(off - RegRETA)
		return binary.LittleEndian.Uint32(p.regs.reta[i : i+4])
	case off >= RegRSSRK && off < RegRSSRK+RSSKeyLen:
		i := int(off - RegRSSRK)
		return binary.LittleEndian.Uint32(p.regs.rssKey[i : i+4])
	}
	switch off {
	case RegCTRL:
		return p.regs.ctrl
	case RegSTATUS:
		return p.regs.status
	case RegRCTL:
		return p.regs.rctl
	case RegTCTL:
		return p.regs.tctl
	case RegMRQC:
		return p.regs.mrqc
	case RegMPC:
		return uint32(p.missedSum())
	case RegGPRC:
		return uint32(p.gprc)
	case RegGPTC:
		return uint32(p.gptc)
	case RegGORCL:
		return uint32(p.gorc)
	case RegGORCH:
		return uint32(p.gorc >> 32)
	case RegGOTCL:
		return uint32(p.gotc)
	case RegGOTCH:
		return uint32(p.gotc >> 32)
	case RegRAL0:
		return uint32(p.mac[0]) | uint32(p.mac[1])<<8 | uint32(p.mac[2])<<16 | uint32(p.mac[3])<<24
	case RegRAH0:
		return uint32(p.mac[4]) | uint32(p.mac[5])<<8 | 1<<31 // AV bit
	default:
		return 0
	}
}

// RegWrite32 implements MMIO writes.
func (p *Port) RegWrite32(off uint64, v uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if alias, ok := legacyAlias(off); ok {
		off = alias
	}
	if r := p.queueReg(off); r != nil {
		*r = v
		return
	}
	switch {
	case off >= RegRETA && off < RegRETA+RetaEntries:
		i := int(off - RegRETA)
		binary.LittleEndian.PutUint32(p.regs.reta[i:i+4], v)
		return
	case off >= RegRSSRK && off < RegRSSRK+RSSKeyLen:
		i := int(off - RegRSSRK)
		binary.LittleEndian.PutUint32(p.regs.rssKey[i:i+4], v)
		return
	}
	switch off {
	case RegCTRL:
		if v&CtrlRST != 0 {
			p.resetLocked()
			return
		}
		p.regs.ctrl = v
	case RegRCTL:
		p.regs.rctl = v
	case RegTCTL:
		p.regs.tctl = v
	case RegMRQC:
		p.regs.mrqc = v
	}
}

// resetLocked clears device state (CTRL.RST).
func (p *Port) resetLocked() {
	lu := p.regs.status & StatusLU
	p.regs = portRegs{status: lu}
	p.gprc, p.gptc, p.gorc, p.gotc = 0, 0, 0, 0
}

// DeliverFrame places an arriving frame in the RX queue the RSS
// classifier selects (the far end of the conduit calls this). readyAt
// is the virtual instant the last bit arrives; the frame becomes
// visible to the RX rings from then on.
func (p *Port) DeliverFrame(data []byte, readyAt int64) {
	p.mu.Lock()
	q := p.classifyLocked(data)
	tap := p.rxTap
	p.mu.Unlock()
	if tap != nil {
		tap(readyAt, data)
	}
	p.fifos[q].push(frame{data: data, readyAt: readyAt})
}

// SetQueueStall freezes (or thaws) one queue pair: a stalled queue's
// TX ring stops draining and its RX FIFO stops filling descriptors, so
// arrivals back up and eventually tail-drop (Missed), exactly like a
// wedged hardware queue. Deterministic: the stall is an instantaneous
// state flip driven from the virtual-time fault plane.
func (p *Port) SetQueueStall(q int, stalled bool) {
	if q < 0 || q >= MaxQueues {
		return
	}
	p.mu.Lock()
	p.stalled[q] = stalled
	p.mu.Unlock()
}

// QueueStalled reports one queue's stall state.
func (p *Port) QueueStalled(q int) bool {
	if q < 0 || q >= MaxQueues {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stalled[q]
}

// InjectDMAFaults arms a burst: the next n DMA mappings (descriptor or
// buffer, either direction) fail as master aborts. The port's existing
// fault paths absorb them — TX bursts stop mid-ring, RX frames drop
// with the descriptor consumed.
func (p *Port) InjectDMAFaults(n int64) {
	if n > 0 {
		p.dmaFaults.Add(n)
	}
}

// DMAFaulted counts injected DMA faults that have fired.
func (p *Port) DMAFaulted() uint64 { return p.dmaFaulted.Load() }

// dmaFault consumes one unit of the injected-fault budget.
func (p *Port) dmaFault() bool {
	if p.dmaFaults.Load() <= 0 {
		return false
	}
	p.dmaFaults.Add(-1)
	p.dmaFaulted.Add(1)
	return true
}

// dmaRO maps [addr, addr+n) of host memory for a device read.
func (p *Port) dmaRO(addr uint64, n int) ([]byte, bool) {
	if p.dmaFault() {
		return nil, false
	}
	if p.capDMA {
		s, err := p.mem.CheckedSliceRO(p.dmaCap.SetAddr(addr), addr, n)
		return s, err == nil
	}
	s, err := p.mem.RawSlice(addr, n)
	return s, err == nil
}

// dmaRW maps [addr, addr+n) for a device write, invalidating tags.
func (p *Port) dmaRW(addr uint64, n int) ([]byte, bool) {
	if p.dmaFault() {
		return nil, false
	}
	if p.capDMA {
		s, err := p.mem.CheckedSlice(p.dmaCap.SetAddr(addr), addr, n)
		return s, err == nil
	}
	s, err := p.mem.RawSlice(addr, n)
	if err != nil {
		return nil, false
	}
	p.mem.RawInvalidate(addr, n)
	return s, true
}

// Step advances the device: it drains every armed TX ring onto the wire
// and fills every armed RX ring from its FIFO, under line-rate and
// bus-budget admission. The DPDK poll-mode driver calls it from every
// burst — it is the simulator's hottest path, so the armed-queue scan
// happens under one lock acquisition and queues with no work cost
// nothing.
//
// A queue is skipped only where its step would provably change
// nothing: a TX ring with no pending descriptor (head == tail), and,
// on an ideal bus, an RX queue whose FIFO head has not arrived. On a
// bus-limited card stepRX always runs, because its admission check
// records bus activity for the fair-share arbiter (see busTouch).
func (p *Port) Step() {
	var tx, rx [MaxQueues]bool
	p.mu.Lock()
	pipe := p.pipe
	txEn := p.regs.tctl&TctlEN != 0 && pipe != nil
	rxEn := p.regs.rctl&RctlEN != 0
	for q := 0; q < MaxQueues; q++ {
		txq := &p.regs.txq[q]
		tx[q] = txEn && txq.length >= DescSize && !p.stalled[q] && txq.head != txq.tail
		rx[q] = rxEn && p.regs.rxq[q].length >= DescSize && !p.stalled[q]
	}
	p.mu.Unlock()
	now := p.clk.Now()
	if pipe != nil {
		// Let a frame-holding conduit (netem delay line, rate limiter)
		// release whatever is due before the RX rings look for arrivals.
		pipe.Pump(now)
	}
	for q := 0; q < MaxQueues; q++ {
		if tx[q] {
			p.stepTX(q)
		}
	}
	busLimited := p.card.busLimited()
	for q := 0; q < MaxQueues; q++ {
		if rx[q] && (busLimited || p.fifos[q].due(now)) {
			p.stepRX(q)
		}
	}
}

// DrainTXThrough transmits as many pending descriptors as the line and
// bus will admit on queues 0..maxQ, in queue-index order, looping past
// stepTX's per-call burst cap, and reports whether queue maxQ's head
// advanced. It touches only the TX path — no conduit pump, no RX ring
// fill — so it is safe to run while other queues' software rings are
// being driven concurrently.
//
// The parallel shard runner calls it when a shard's TX ring fills
// mid-instant: the sequential driver would have drained the ring
// continuously while the shard ran, and because virtual time is frozen
// and earlier shards' frames all book before later ones', draining
// queues 0..q at the stall point books the identical line schedule and
// reproduces the exact descriptor-ring backpressure the sequential
// stack would have seen.
func (p *Port) DrainTXThrough(maxQ int) bool {
	if maxQ >= MaxQueues {
		maxQ = MaxQueues - 1
	}
	progress := false
	for q := 0; q <= maxQ; q++ {
		for {
			p.mu.Lock()
			before := p.regs.txq[q].head
			p.mu.Unlock()
			p.stepTX(q)
			p.mu.Lock()
			moved := p.regs.txq[q].head != before
			p.mu.Unlock()
			if !moved {
				break
			}
			if q == maxQ {
				progress = true
			}
		}
	}
	return progress
}

// stepTX transmits queue q's descriptors [TDH, TDT).
func (p *Port) stepTX(q int) {
	p.mu.Lock()
	if p.regs.tctl&TctlEN == 0 || p.pipe == nil || p.stalled[q] {
		p.mu.Unlock()
		return
	}
	qr := &p.regs.txq[q]
	base := uint64(qr.bal) | uint64(qr.bah)<<32
	n := qr.length / DescSize
	head, tail := qr.head, qr.tail
	tr, src := p.obsTr, p.obsSrc
	p.mu.Unlock()
	if n == 0 {
		return
	}

	// Stats batch per burst: taking p.mu twice per transmitted frame
	// was measurable lock churn on the simulator's hottest path.
	var sentFrames, sentBytes uint64
	for burst := 0; burst < maxBurst && head != tail; burst++ {
		descAddr := base + uint64(head)*DescSize
		desc, ok := p.dmaRO(descAddr, DescSize)
		if !ok {
			// DMA fault: silently stop, like a master abort. Deliberate
			// change from the pre-batching code, which returned without
			// committing head — frames sent before a mid-burst fault
			// were re-read and re-transmitted on the next step; now
			// their head advance (and stats) are written back below.
			break
		}
		bufAddr := binary.LittleEndian.Uint64(desc[0:8])
		length := int(binary.LittleEndian.Uint16(desc[8:10]))
		cmd := desc[11]
		if length == 0 || length > maxFrame || cmd&TxCmdEOP == 0 {
			// Malformed descriptor: consume it without transmitting.
			p.writeBackStatus(descAddr, StatDD)
			head = (head + 1) % n
			continue
		}
		// Admission: the line must have room AND the bus must have
		// budget for the DMA read.
		if !p.line.CanAdmit() || !p.card.busCanAdmit(p.idx) {
			break
		}
		buf, ok := p.dmaRO(bufAddr, length)
		if !ok {
			p.writeBackStatus(descAddr, StatDD)
			head = (head + 1) % n
			continue
		}
		doneAt, _ := p.line.Admit(length + wireOverhead)
		p.card.busAdmit(p.idx, int(p.card.cfg.BusCostTX*float64(length+wireOverhead)))
		data := p.arena.Alloc(length)
		copy(data, buf)
		p.pipe.Send(p.pipeEnd, data, doneAt+PropagationDelayNS)

		p.writeBackStatus(descAddr, StatDD)
		head = (head + 1) % n
		sentFrames++
		sentBytes += uint64(length)
	}
	if sentFrames > 0 && tr != nil {
		tr.Record(p.clk.Now(), obs.EvNicTxBurst, src, int64(sentFrames), int64(sentBytes), int64(q))
	}
	p.mu.Lock()
	p.gptc += sentFrames
	p.gotc += sentBytes
	p.regs.txq[q].head = head
	p.mu.Unlock()
}

// stepRX moves queue q's fully arrived frames into descriptors
// [RDH, RDT).
func (p *Port) stepRX(q int) {
	p.mu.Lock()
	if p.regs.rctl&RctlEN == 0 || p.stalled[q] {
		p.mu.Unlock()
		return
	}
	qr := &p.regs.rxq[q]
	base := uint64(qr.bal) | uint64(qr.bah)<<32
	n := qr.length / DescSize
	head, tail := qr.head, qr.tail
	tr, dp, src := p.obsTr, p.obsDP, p.obsSrc
	p.mu.Unlock()
	if n == 0 {
		return
	}

	now := p.clk.Now()
	var gotFrames, gotBytes uint64
	for burst := 0; burst < maxBurst && head != tail; burst++ {
		// Bus budget gate BEFORE popping, so refused frames stay queued.
		if !p.card.busCanAdmit(p.idx) {
			break
		}
		fr, ok := p.fifos[q].pop(now)
		if !ok {
			break
		}
		descAddr := base + uint64(head)*DescSize
		desc, ok := p.dmaRO(descAddr, DescSize)
		if !ok {
			p.arena.Free(fr.data) // popped, so ours to release
			break
		}
		bufAddr := binary.LittleEndian.Uint64(desc[0:8])
		dst, ok := p.dmaRW(bufAddr, len(fr.data))
		if !ok {
			// Bad buffer: drop the frame, consume the descriptor.
			p.arena.Free(fr.data)
			p.writeBackRX(descAddr, 0)
			head = (head + 1) % n
			continue
		}
		copy(dst, fr.data)
		p.card.busAdmit(p.idx, int(p.card.cfg.BusCostRX*float64(len(fr.data)+wireOverhead)))
		p.writeBackRX(descAddr, uint16(len(fr.data)))
		head = (head + 1) % n
		gotFrames++
		gotBytes += uint64(len(fr.data))
		if dp != nil {
			// Datapath latency: last bit on the wire to DMA completion
			// (FIFO residence + bus admission).
			dp.Record(now - fr.readyAt)
		}
		// The frame now lives in descriptor memory; its wire buffer
		// returns to the arena (see the ownership contract in arena.go).
		p.arena.Free(fr.data)
	}
	if gotFrames > 0 && tr != nil {
		tr.Record(now, obs.EvNicRxBurst, src, int64(gotFrames), int64(gotBytes), int64(q))
	}
	p.mu.Lock()
	p.gprc += gotFrames
	p.gorc += gotBytes
	p.regs.rxq[q].head = head
	p.mu.Unlock()
}

// writeBackStatus sets the status byte of a TX descriptor.
func (p *Port) writeBackStatus(descAddr uint64, status byte) {
	if s, ok := p.dmaRW(descAddr+12, 1); ok {
		s[0] = status
	}
}

// writeBackRX completes an RX descriptor: length + DD|EOP status.
func (p *Port) writeBackRX(descAddr uint64, length uint16) {
	if s, ok := p.dmaRW(descAddr+8, 8); ok {
		binary.LittleEndian.PutUint16(s[0:2], length)
		s[2], s[3] = 0, 0 // checksum (unused)
		s[4] = StatDD | StatEOP
		s[5] = 0 // errors
	}
}

// missedSum sums the per-queue tail-drop counters (the FIFOs carry
// their own locks, so this is safe with or without p.mu held).
func (p *Port) missedSum() uint64 {
	var total uint64
	for q := range p.fifos {
		total += p.fifos[q].missedCount()
	}
	return total
}

// Missed returns the RX FIFO tail-drop count (MPC), summed over queues.
func (p *Port) Missed() uint64 { return p.missedSum() }

// PendingRX reports frames waiting in the RX FIFOs (testing hook).
func (p *Port) PendingRX() int {
	total := 0
	for q := range p.fifos {
		total += p.fifos[q].pending()
	}
	return total
}

// PendingRXQueue reports frames waiting in one queue's FIFO (testing
// hook).
func (p *Port) PendingRXQueue(q int) int { return p.fifos[q].pending() }

// NextDeadline reports the earliest virtual instant at or after which
// this port could make progress: the head frame of an armed RX queue
// becoming harvestable, a pending TX descriptor becoming admissible on
// the line and the bus, or the attached conduit releasing a held
// frame. math.MaxInt64 means the port holds no time-based work. A
// value <= now means the port has work right now.
//
// The query is side-effect free — in particular it must not touch the
// bus arbiter, whose activity window is part of the simulated machine
// state (see busNextAdmitAt).
func (p *Port) NextDeadline(now int64) int64 {
	p.mu.Lock()
	pipe := p.pipe
	rxEn := p.regs.rctl&RctlEN != 0
	txEn := p.regs.tctl&TctlEN != 0 && pipe != nil
	var rxArmed [MaxQueues]bool
	txPending := false
	for q := 0; q < MaxQueues; q++ {
		// A stalled queue holds no time-based work: excluding it keeps
		// the leaping driver from spinning at `now` on a ring that will
		// not move until the fault plane thaws it.
		rxArmed[q] = rxEn && p.regs.rxq[q].length >= DescSize && !p.stalled[q]
		if txEn && p.regs.txq[q].length >= DescSize && !p.stalled[q] &&
			p.regs.txq[q].head != p.regs.txq[q].tail {
			txPending = true
		}
	}
	p.mu.Unlock()

	d := int64(math.MaxInt64)
	for q := 0; q < MaxQueues; q++ {
		if !rxArmed[q] {
			continue
		}
		if at, ok := p.fifos[q].headReadyAt(); ok && at < d {
			d = at
		}
	}
	if txPending {
		at := p.line.NextAdmitAt(now)
		if busAt := p.card.busNextAdmitAt(p.idx, now); busAt > at {
			at = busAt
		}
		if at < d {
			d = at
		}
	}
	if pipe != nil {
		if at := pipe.NextDeadline(now); at < d {
			d = at
		}
	}
	// On a bus-limited card the polling itself is state: every armed
	// port's Step touches the fair-share arbiter each iteration, and a
	// port that stays silent past busActivityWindow changes the active
	// set (and everyone's rates). Capping the leap at half the window
	// keeps the arbiter's view identical to the tick-stepped driver's.
	if rxEn && p.card.busLimited() {
		if cap := now + busActivityWindow/2; cap < d {
			d = cap
		}
	}
	return d
}
