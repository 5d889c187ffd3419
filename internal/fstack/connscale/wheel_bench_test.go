package connscale

import "testing"

// BenchmarkWheelNextDeadline measures the connection plane's
// next-deadline query at Scenario 8 scale: 100k TIME_WAIT-shaped
// timers (a 20k flows/s close stream, ~390 per 16.8 ms level-1 slot)
// held behind a level-0 slot of eight short timers. Each op removes
// that slot's minimum entry, queries NextDeadline (a recompute) and
// re-arms the entry, so it pays for one recompute with one dirty slot.
// Recycled items keep it at 0 allocs/op.
func BenchmarkWheelNextDeadline(b *testing.B) {
	w := New[int](0, DefaultTickShift)
	for i := 0; i < 100_000; i++ {
		w.Insert(20e6+int64(i)*42_000, i)
	}
	const short = 8
	var hs [short]Handle
	for j := range hs {
		hs[j] = w.Insert(1e6+int64(j)*1000, j)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Remove(hs[0])
		if w.NextDeadline() != 1e6+1000 {
			b.Fatal("NextDeadline missed the slot's new minimum")
		}
		hs[0] = w.Insert(1e6, 0)
	}
}
