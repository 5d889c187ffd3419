package netem

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// TestFrameHeapPopsInOrder checks the typed delay-line heap against a
// sort over random interleavings of pushes and pops, with many equal
// deliverAt instants so the seq tie-break is exercised.
func TestFrameHeapPopsInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var h frameHeap
	var ref []heldFrame
	var seq uint64
	for i := 0; i < 5000; i++ {
		if rng.Intn(3) > 0 || len(ref) == 0 {
			f := heldFrame{deliverAt: rng.Int63n(64), seq: seq}
			seq++
			h.push(f)
			ref = append(ref, f)
			continue
		}
		sort.Slice(ref, func(i, j int) bool { return frameHeap(ref).less(i, j) })
		got := h.pop()
		if got.deliverAt != ref[0].deliverAt || got.seq != ref[0].seq {
			t.Fatalf("pop %d: got (%d, %d), want (%d, %d)", i, got.deliverAt, got.seq, ref[0].deliverAt, ref[0].seq)
		}
		ref = ref[1:]
	}
}

// seqRecorder logs the sequence number each delivered frame carries.
// Deliveries come from both goroutines of the concurrency test.
type seqRecorder struct {
	mu   sync.Mutex
	seqs []int
}

func (r *seqRecorder) DeliverFrame(data []byte, _ int64) {
	r.mu.Lock()
	r.seqs = append(r.seqs, int(binary.BigEndian.Uint32(data)))
	r.mu.Unlock()
}

func (r *seqRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.seqs)
}

// TestLinkConcurrentSendPump referees the lock-free head mirror under
// the race detector: one goroutine sends, as a port's TX path does,
// while another advances the clock and pumps and queries deadlines, as
// the far port's loop does in real-clock runs. Sends release due
// frames inline too, so both goroutines deliver. Every frame must be
// delivered exactly once and in send order.
func TestLinkConcurrentSendPump(t *testing.T) {
	const n = 2000
	const spacing = 100
	const delay = 5_000
	clk := sim.NewVClock()
	var a, b seqRecorder
	l := New(clk, &a, &b, Config{DelayNS: delay})

	var sent atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			fr := make([]byte, 64)
			binary.BigEndian.PutUint32(fr, uint32(i))
			l.Send(0, fr, int64(i)*spacing)
			sent.Store(int64(i + 1))
		}
	}()
	// The clock trails the sender, so most frames sit in the delay
	// line until a Pump releases them and some come due inside a Send.
	finished := false
	for !finished {
		select {
		case <-done:
			finished = true
		default:
		}
		if clk.Now() < sent.Load()*spacing {
			clk.Advance(spacing / 2)
		}
		l.Pump(clk.Now())
		l.NextDeadline(clk.Now())
	}
	clk.Advance(n*spacing + delay)
	l.Pump(clk.Now())

	if b.count() != n {
		t.Fatalf("delivered %d of %d frames", b.count(), n)
	}
	for i, s := range b.seqs {
		if s != i {
			t.Fatalf("delivery %d carried frame %d", i, s)
		}
	}
	if st := l.Stats(0); st.Sent != n || st.Delivered != n {
		t.Fatalf("stats: %s", st)
	}
	if d := l.NextDeadline(clk.Now()); d != 1<<63-1 {
		t.Fatalf("NextDeadline = %d on an empty link", d)
	}
}

// discard is an Endpoint that drops what it is handed.
type discard struct{}

func (discard) DeliverFrame([]byte, int64) {}

// BenchmarkLinkSendPump measures one frame through an impaired link:
// Send through the 100 Mbit/s bottleneck and the 1 ms delay line, then
// the Pump that releases it.
func BenchmarkLinkSendPump(b *testing.B) {
	clk := sim.NewVClock()
	l := New(clk, discard{}, discard{}, Config{RateBps: 100e6, DelayNS: 1_000_000})
	frame := make([]byte, 1448)
	roundTrip := func() {
		l.Send(0, frame, clk.Now())
		clk.Advance(1_200_000)
		l.Pump(clk.Now())
	}
	roundTrip() // grows the delay line's heap to its steady size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		roundTrip()
	}
	if st := l.Stats(0); st.Delivered != st.Sent {
		b.Fatalf("stats: %s", st)
	}
}
