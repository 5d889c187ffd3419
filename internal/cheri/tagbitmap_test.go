package cheri

import (
	"math/rand"
	"testing"
)

// TestStoreClearsExactlyOverlappedGranules pins the tag bitmap's range
// clearing at its boundaries: a data store clears the tag of every
// granule it overlaps, even by one byte, and of no other. The ranges
// start and end mid-granule, on granule edges and on the 64-granule
// bitmap word edges, and include the last, partly used bitmap word.
func TestStoreClearsExactlyOverlappedGranules(t *testing.T) {
	const granules = 150 // three bitmap words, the last partly used
	m := NewTMem(granules * CapSize)
	root := m.Root()
	v, err := root.SetAddr(0x40).SetBounds(0x40)
	if err != nil {
		t.Fatal(err)
	}
	tagAll := func() {
		for g := uint64(0); g < granules; g++ {
			if err := m.StoreCap(root, g*CapSize, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(addr uint64, n int) {
		t.Helper()
		first, last := addr/CapSize, (addr+uint64(n)-1)/CapSize
		for g := uint64(0); g < granules; g++ {
			want := g < first || g > last
			if got := m.TagAt(g * CapSize); got != want {
				t.Fatalf("store [%#x,+%d): granule %d tag %v, want %v", addr, n, g, got, want)
			}
			c, err := m.LoadCap(root, g*CapSize)
			if err != nil {
				t.Fatal(err)
			}
			if c.Tag() != want {
				t.Fatalf("store [%#x,+%d): granule %d loads tag %v, want %v", addr, n, g, c.Tag(), want)
			}
		}
	}
	cases := []struct {
		addr uint64
		n    int
	}{
		{0, 1},                              // first byte
		{15, 1},                             // last byte of granule 0
		{15, 2},                             // straddles granules 0 and 1
		{16, 16},                            // exactly granule 1
		{63*CapSize + 8, 16},                // straddles bitmap words 0 and 1
		{64 * CapSize, 64 * CapSize},        // exactly bitmap word 1
		{64*CapSize - 1, 64*CapSize + 2},    // word 1 plus one byte each side
		{100, 1514},                         // a frame-sized store
		{granules*CapSize - 1, 1},           // last byte of memory
		{140 * CapSize, 10 * CapSize},       // the partly used last word
		{0, granules * CapSize},             // all of memory
		{7, granules*CapSize - 7 - CapSize}, // mid-granule to mid-memory
	}
	for _, c := range cases {
		tagAll()
		if err := m.Store(root, c.addr, make([]byte, c.n)); err != nil {
			t.Fatalf("store [%#x,+%d): %v", c.addr, c.n, err)
		}
		check(c.addr, c.n)
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 200; i++ {
		addr := uint64(rng.Intn(granules * CapSize))
		n := 1 + rng.Intn(granules*CapSize-int(addr))
		tagAll()
		m.RawInvalidate(addr, n)
		check(addr, n)
	}
}
