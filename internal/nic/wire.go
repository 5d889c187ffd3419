package nic

import (
	"math"
	"sync"
	"sync/atomic"
)

// PropagationDelayNS is the cable's one-way latency. A metre of copper
// plus PHY latency is well under a microsecond; 500 ns is representative.
const PropagationDelayNS = 500

// RxFifoBytes is the per-port receive packet buffer. The 82576 has a
// 64 KiB RX packet buffer per port; arrivals beyond it are tail-dropped
// and counted in MPC, which is what gives TCP its congestion signal when
// the PCI bus (not the line) is the bottleneck.
const RxFifoBytes = 64 * 1024

// frame is a packet in flight: the bytes plus the virtual instant the
// last bit arrives at the receiver.
type frame struct {
	data    []byte
	readyAt int64
}

// rxFifo is a port's receive packet buffer.
type rxFifo struct {
	mu     sync.Mutex
	frames []frame
	// headAt mirrors frames[0].readyAt (math.MaxInt64 when empty). It
	// is written under mu wherever the head changes and read without
	// the lock as a hint; pop re-checks under mu before taking a frame.
	headAt atomic.Int64
	bytes  int
	limit  int
	missed uint64
	arena  *FrameArena // where tail-dropped frames return; nil = default
}

// push stores an arriving frame, tail-dropping when the buffer is full.
func (f *rxFifo) push(fr frame) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.bytes+len(fr.data) > f.limit {
		f.missed++
		arena := f.arena
		if arena == nil {
			arena = defaultArena
		}
		arena.Free(fr.data)
		return
	}
	f.frames = append(f.frames, fr)
	f.bytes += len(fr.data)
	if len(f.frames) == 1 {
		f.headAt.Store(fr.readyAt)
	}
}

// pop removes the next fully arrived frame, if any. When the head
// mirror says nothing is due it returns without the lock; a frame
// pushed concurrently is then simply taken by the next pop.
func (f *rxFifo) pop(now int64) (frame, bool) {
	if !f.due(now) {
		return frame{}, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.frames) == 0 || f.frames[0].readyAt > now {
		return frame{}, false
	}
	fr := f.frames[0]
	copy(f.frames, f.frames[1:])
	f.frames = f.frames[:len(f.frames)-1]
	f.bytes -= len(fr.data)
	if len(f.frames) > 0 {
		f.headAt.Store(f.frames[0].readyAt)
	} else {
		f.headAt.Store(math.MaxInt64)
	}
	return fr, true
}

// due reports, without the lock, whether the head frame had arrived
// by now.
func (f *rxFifo) due(now int64) bool { return f.headAt.Load() <= now }

// missedCount returns the tail-drop counter.
func (f *rxFifo) missedCount() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.missed
}

// pending reports queued frames (testing hook).
func (f *rxFifo) pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.frames)
}

// headReadyAt reports when the FIFO's head frame becomes harvestable.
// The buffer is strictly first-in-first-out — pop only ever looks at
// the head — so the head's arrival instant IS the queue's deadline
// even if a later frame happens to be due earlier. It reads the head
// mirror, so it takes no lock.
func (f *rxFifo) headReadyAt() (int64, bool) {
	at := f.headAt.Load()
	return at, at != math.MaxInt64
}

// Conduit is the medium a port transmits into. A *Wire is the direct
// back-to-back cable; internal/netem's Link interposes an impairment
// pipeline between the same two ports. The port calls Send with the
// instant the last bit leaves its serializer (propagation already
// added) and calls Pump from every device step so a conduit that holds
// frames (delay lines, rate limiters) can release the ones now due.
//
// Ownership: `data` passes to the receiving side on Send — the
// consumer (the far port's RX path, or the conduit itself when it
// drops the frame) returns it to the frame arena via FreeFrame, so a
// caller must not retain the slice afterward. Beware in particular of
// hand-built full-MTU (1514-byte-cap) buffers: FreeFrame recognizes
// arena frames by that capacity and would recycle them.
type Conduit interface {
	// Send carries one frame away from endpoint `from` (0 or 1).
	Send(from int, data []byte, readyAt int64)
	// Pump delivers any held frames that are due at virtual time now.
	Pump(now int64)
	// NextDeadline reports the earliest instant a held frame becomes
	// due, or math.MaxInt64 for a conduit holding nothing. Part of the
	// interface so a frame-holding conduit that forgets it fails to
	// compile instead of silently reading as quiescent to the
	// event-driven clock.
	NextDeadline(now int64) int64
}

// Wire is a full-duplex point-to-point Ethernet cable: frames sent by
// one port land in the other port's RX FIFO after the propagation delay
// (already folded into readyAt by the sender). It holds nothing, so its
// Pump is a no-op.
type Wire struct {
	ends [2]*Port
}

// Connect wires two ports back to back and raises link-up on both.
func Connect(a, b *Port) *Wire {
	w := &Wire{ends: [2]*Port{a, b}}
	a.Attach(w, 0)
	b.Attach(w, 1)
	return w
}

// Send forwards a frame from endpoint `from` to the peer, whose RSS
// classifier picks the destination RX FIFO.
func (w *Wire) Send(from int, data []byte, readyAt int64) {
	w.ends[1-from].DeliverFrame(data, readyAt)
}

// Pump implements Conduit; a plain cable never holds frames.
func (w *Wire) Pump(int64) {}

// NextDeadline implements Conduit; a plain cable holds nothing.
func (w *Wire) NextDeadline(int64) int64 { return math.MaxInt64 }
