package connscale

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// collect drains due entries at now into a slice.
func collect(w *Wheel[int], now int64) []int {
	var got []int
	w.Advance(now, func(v int) { got = append(got, v) })
	return got
}

func TestWheelFiresExactly(t *testing.T) {
	w := New[int](0, DefaultTickShift)
	w.Insert(1_000_000, 1) // 1 ms: level 0
	w.Insert(100_000_000, 2)
	w.Insert(100_000_000, 3) // same instant
	w.Insert(5_000_000_000, 4)

	if d := w.NextDeadline(); d != 1_000_000 {
		t.Fatalf("NextDeadline = %d, want 1e6", d)
	}
	if got := collect(w, 999_999); len(got) != 0 {
		t.Fatalf("fired %v one ns early", got)
	}
	if got := collect(w, 1_000_000); len(got) != 1 || got[0] != 1 {
		t.Fatalf("at deadline fired %v, want [1]", got)
	}
	if d := w.NextDeadline(); d != 100_000_000 {
		t.Fatalf("NextDeadline after first fire = %d, want 1e8", d)
	}
	got := collect(w, 200_000_000) // leap across many level-0 revolutions
	sort.Ints(got)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("leap fired %v, want [2 3]", got)
	}
	if got := collect(w, 5_000_000_001); len(got) != 1 || got[0] != 4 {
		t.Fatalf("level-2 entry fired %v, want [4]", got)
	}
	if w.Len() != 0 {
		t.Fatalf("Len = %d after all fired", w.Len())
	}
	if d := w.NextDeadline(); d != math.MaxInt64 {
		t.Fatalf("empty NextDeadline = %d", d)
	}
}

func TestWheelRemove(t *testing.T) {
	w := New[int](0, DefaultTickShift)
	h1 := w.Insert(1_000_000, 1)
	w.Insert(2_000_000, 2)
	w.Remove(h1)
	if d := w.NextDeadline(); d != 2_000_000 {
		t.Fatalf("NextDeadline after Remove = %d, want 2e6", d)
	}
	if got := collect(w, 3_000_000); len(got) != 1 || got[0] != 2 {
		t.Fatalf("fired %v, want [2]", got)
	}
}

func TestWheelPastDeadline(t *testing.T) {
	w := New[int](0, DefaultTickShift)
	w.Advance(1_000_000_000, func(int) {})
	w.Insert(5, 1) // long past: due immediately
	if d := w.NextDeadline(); d != 5 {
		t.Fatalf("NextDeadline = %d, want the past instant 5", d)
	}
	if got := collect(w, 1_000_000_000); len(got) != 1 || got[0] != 1 {
		t.Fatalf("past deadline fired %v, want [1]", got)
	}
}

func TestWheelFarDeadlineClamp(t *testing.T) {
	w := New[int](0, DefaultTickShift)
	far := int64(1) << 62 // beyond the top level's span
	w.Insert(far, 1)
	if d := w.NextDeadline(); d != far {
		t.Fatalf("NextDeadline = %d, want %d", d, far)
	}
	if got := collect(w, far-1); len(got) != 0 {
		t.Fatalf("clamped entry fired early: %v", got)
	}
	if got := collect(w, far); len(got) != 1 {
		t.Fatalf("clamped entry fired %v, want [1]", got)
	}
}

// TestWheelRandomized cross-checks the wheel against a brute-force
// model under random insert/remove/advance traffic, comparing Len and
// NextDeadline with the model after every operation. The shapes stress
// the cached minima: mixed scales across all levels; hundreds of
// deadlines clustered in one level-1 slot (the TIME_WAIT shape); and
// deadlines past the top level's span, parked in its last slot and
// cascaded down as long leaps move the cursor. Half the removals take
// a slot's minimum entry, the case that forces a slot walk.
func TestWheelRandomized(t *testing.T) {
	shapes := []struct {
		name   string
		offset func(*rand.Rand) int64 // insert offset from now
		leap   int64                  // advance step bound
	}{
		{"mixed", func(rng *rand.Rand) int64 {
			switch rng.Intn(3) {
			case 0:
				return rng.Int63n(1 << 20) // within level 0
			case 1:
				return rng.Int63n(1 << 28) // level 1 territory
			default:
				return rng.Int63n(1 << 34) // level 2 territory
			}
		}, 1 << 24},
		{"level1-cluster", func(rng *rand.Rand) int64 {
			return 1<<24 + rng.Int63n(1<<24) // one or two 16.8 ms slots
		}, 1 << 16},
		{"top-parked", func(rng *rand.Rand) int64 {
			return rng.Int63n(1 << 42) // up to 4x past the top level's span
		}, 1 << 36},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			checkWheelAgainstModel(t, rand.New(rand.NewSource(7)), sh.offset, sh.leap)
		})
	}
}

func checkWheelAgainstModel(t *testing.T, rng *rand.Rand, offset func(*rand.Rand) int64, leap int64) {
	w := New[int](0, DefaultTickShift)
	type ref struct {
		id       int
		deadline int64
		h        Handle
	}
	var live []ref
	// minIn is the index of the earliest live entry whose deadline
	// satisfies in, or -1.
	minIn := func(in func(int64) bool) int {
		best := -1
		for i, rf := range live {
			if in(rf.deadline) && (best < 0 || rf.deadline < live[best].deadline) {
				best = i
			}
		}
		return best
	}
	now, nextID, peak := int64(0), 0, 0
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(10); {
		case r < 5:
			d := now + offset(rng)
			live = append(live, ref{id: nextID, deadline: d, h: w.Insert(d, nextID)})
			nextID++
		case r < 6:
			if len(live) == 0 {
				break
			}
			i := rng.Intn(len(live))
			if rng.Intn(2) == 0 {
				// The earliest entry of i's level-1-slot-wide window.
				win := live[i].deadline >> (DefaultTickShift + slotBits)
				i = minIn(func(d int64) bool { return d>>(DefaultTickShift+slotBits) == win })
			}
			w.Remove(live[i].h)
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		default:
			now += rng.Int63n(leap)
			fired := map[int]bool{}
			w.Advance(now, func(id int) { fired[id] = true })
			kept := live[:0]
			for _, rf := range live {
				if rf.deadline <= now && !fired[rf.id] {
					t.Fatalf("step %d: entry %d (deadline %d) not fired at %d", step, rf.id, rf.deadline, now)
				}
				if rf.deadline > now && fired[rf.id] {
					t.Fatalf("step %d: entry %d (deadline %d) fired early at %d", step, rf.id, rf.deadline, now)
				}
				if !fired[rf.id] {
					kept = append(kept, rf)
				}
			}
			live = kept
		}
		if w.Len() != len(live) {
			t.Fatalf("step %d: Len %d != model %d", step, w.Len(), len(live))
		}
		wantMin := int64(math.MaxInt64)
		if i := minIn(func(int64) bool { return true }); i >= 0 {
			wantMin = live[i].deadline
		}
		if got := w.NextDeadline(); got != wantMin {
			t.Fatalf("step %d: NextDeadline %d != model %d", step, got, wantMin)
		}
		peak = max(peak, len(live))
	}
	t.Logf("peak live entries %d", peak)
}

// TestWheelSteadyStateNoGrowth pins the zero-alloc property the conn
// timer path relies on: once the free list is primed, insert/fire
// cycles reuse items instead of growing the backing slice.
func TestWheelSteadyStateNoGrowth(t *testing.T) {
	w := New[int](0, DefaultTickShift)
	for i := 0; i < 64; i++ {
		w.Insert(int64(i+1)*1e6, i)
	}
	w.Advance(65e6, func(int) {})
	high := len(w.items)
	now := int64(65e6)
	for round := 0; round < 1000; round++ {
		for i := 0; i < 64; i++ {
			w.Insert(now+int64(i+1)*1e5, i)
		}
		now += 1e7
		w.Advance(now, func(int) {})
	}
	if len(w.items) != high {
		t.Fatalf("items grew from %d to %d in steady state", high, len(w.items))
	}
}
