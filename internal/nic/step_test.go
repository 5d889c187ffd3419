package nic

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// portState is everything an idle Step could conceivably change: the
// register file, the statistics, the FIFOs, the line serializer's
// booking and all of host memory (descriptor rings and buffers).
type portState struct {
	regs                   portRegs
	gprc, gptc, gorc, gotc uint64
	missed                 uint64
	pending                int
	lineAt                 int64
	mem                    []byte
}

func snapshot(t *testing.T, be *bench, p *Port) portState {
	t.Helper()
	p.mu.Lock()
	s := portState{regs: p.regs, gprc: p.gprc, gptc: p.gptc, gorc: p.gorc, gotc: p.gotc}
	p.mu.Unlock()
	s.missed, s.pending = p.Missed(), p.PendingRX()
	s.lineAt = p.line.NextAdmitAt(be.clk.Now())
	raw, err := be.mem.RawSlice(0, int(be.mem.Size()))
	if err != nil {
		t.Fatal(err)
	}
	s.mem = bytes.Clone(raw)
	return s
}

func (s portState) equal(o portState) bool {
	return s.regs == o.regs && s.gprc == o.gprc && s.gptc == o.gptc &&
		s.gorc == o.gorc && s.gotc == o.gotc && s.missed == o.missed &&
		s.pending == o.pending && s.lineAt == o.lineAt && bytes.Equal(s.mem, o.mem)
}

// TestIdleStepIdealBusChangesNothing pins the idle-step skip: on an
// ideal bus, a Step with no pending TX descriptor and no arrived RX
// frame must leave every register, counter and byte of memory as it
// was — also while a frame waits in the FIFO for its arrival instant.
// The frame is then harvested on the first Step at or after it.
func TestIdleStepIdealBusChangesNothing(t *testing.T) {
	be := newBench(t, 0)
	be.clk.Advance(1_000_000)
	readyAt := be.clk.Now() + 10_000
	payload := bytes.Repeat([]byte{0x3C}, 100)
	be.b.DeliverFrame(payload, readyAt)

	before := snapshot(t, be, be.b)
	be.b.Step()
	be.b.Step()
	if after := snapshot(t, be, be.b); !after.equal(before) {
		t.Fatalf("idle Step changed port state:\nbefore %+v\nafter  %+v", before.regs, after.regs)
	}
	if got := be.b.NextDeadline(be.clk.Now()); got != readyAt {
		t.Fatalf("NextDeadline = %d, want the held frame's arrival %d", got, readyAt)
	}

	be.clk.Advance(readyAt - be.clk.Now())
	be.b.Step()
	var next uint32
	got := be.rxHarvest(t, be.b, be.brx, &next)
	if len(got) != 1 || !bytes.Equal(got[0], payload) {
		t.Fatalf("frame due at %d not harvested: %d frames", readyAt, len(got))
	}
	if d := be.b.NextDeadline(be.clk.Now()); d != math.MaxInt64 {
		t.Fatalf("NextDeadline = %d after the FIFO drained, want MaxInt64", d)
	}
}

// TestIdleStepBusLimitedTouchesArbiter pins the counter-example to the
// idle-step skip: on a bus-limited card an armed RX queue's step
// records bus activity even when nothing arrived, and that timestamp
// decides the fair-share arbiter's active set. Skipping stepRX there
// would change Table II.
func TestIdleStepBusLimitedTouchesArbiter(t *testing.T) {
	be := newBench(t, 0.5e9)
	busUse := func() int64 {
		c := be.b.card
		c.busMu.Lock()
		defer c.busMu.Unlock()
		return c.busUse[be.b.idx]
	}
	for _, adv := range []int64{5_000_000, 3_000_000} {
		be.clk.Advance(adv)
		be.b.Step()
		if got, want := busUse(), be.clk.Now(); got != want {
			t.Fatalf("idle Step at %d left busUse at %d", want, got)
		}
	}
	if be.b.PendingRX() != 0 || be.b.RegRead32(RegGPRC) != 0 {
		t.Fatal("idle Step received a frame out of nothing")
	}
}

// TestStepConcurrentDeliverInOrder referees the lock-free FIFO head
// mirror under the race detector: one goroutine delivers frames, as
// the far port's loop does in real-clock runs, while this one steps,
// queries deadlines and harvests. Every frame must come out exactly
// once and in order.
func TestStepConcurrentDeliverInOrder(t *testing.T) {
	be := newBench(t, 0)
	const n = 2000
	const spacing = 100
	stop := make(chan struct{})
	done := make(chan struct{})
	defer func() { close(stop); <-done }()
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			// Stay well inside the FIFO so no frame is tail-dropped.
			for be.b.PendingRX() > 64 {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
			fr := make([]byte, 64)
			binary.BigEndian.PutUint32(fr, uint32(i))
			be.b.DeliverFrame(fr, int64(i)*spacing)
		}
	}()

	var next uint32
	want := 0
	stuck := 0 // steps in a row that harvested nothing while frames waited
	for want < n {
		be.b.Step()
		be.b.NextDeadline(be.clk.Now())
		got := be.rxHarvest(t, be.b, be.brx, &next)
		for _, f := range got {
			if seq := int(binary.BigEndian.Uint32(f)); seq != want {
				t.Fatalf("harvested frame %d, want %d", seq, want)
			}
			want++
		}
		be.clk.Advance(spacing / 2)
		// Past the last arrival instant every delivered frame is due,
		// so steps that harvest nothing while frames wait have lost
		// track of them.
		if len(got) == 0 && be.clk.Now() > n*spacing && be.b.PendingRX() > 0 {
			if stuck++; stuck > 100 {
				t.Fatalf("stalled: %d of %d frames harvested, %d waiting", want, n, be.b.PendingRX())
			}
		} else {
			stuck = 0
		}
		select {
		case <-done:
			if want < n && be.b.PendingRX() == 0 && len(got) == 0 {
				t.Fatalf("lost frames: %d of %d harvested, none waiting", want, n)
			}
		default:
		}
	}
	be.clk.Advance(1_000_000)
	be.b.Step()
	if extra := be.rxHarvest(t, be.b, be.brx, &next); len(extra) != 0 {
		t.Fatalf("%d frames harvested twice", len(extra))
	}
	if be.b.Missed() != 0 || be.b.PendingRX() != 0 {
		t.Fatalf("missed %d, pending %d", be.b.Missed(), be.b.PendingRX())
	}
}

// BenchmarkPortStepIdle measures one device step with every armed
// ring empty on an ideal bus: the poll the DPDK driver makes several
// times per loop iteration when no frame is due.
func BenchmarkPortStepIdle(b *testing.B) {
	be := newBench(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		be.b.Step()
	}
}
