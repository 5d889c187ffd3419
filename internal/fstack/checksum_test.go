package fstack

import (
	"math/rand"
	"testing"
)

// refSumBytes is the reference ones' complement sum: one 16-bit
// big-endian word at a time, exactly as RFC 1071 states it.
// sumBytes must agree with it after finishChecksum.
func refSumBytes(sum uint32, data []byte) uint32 {
	n := len(data) &^ 1
	for i := 0; i < n; i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	return sum
}

// TestSumBytesMatchesReference compares the word-wide sum with the
// reference over every length up to a jumbo-ish 1600 bytes, for
// starting sums that exercise the fold (0, one full word, and a sum
// already past 16 bits), on random, all-zero and all-ones buffers.
// All-ones input is where an unfolded accumulator overflows first.
func TestSumBytesMatchesReference(t *testing.T) {
	const maxLen = 1600
	rnd := make([]byte, maxLen)
	rand.New(rand.NewSource(1071)).Read(rnd)
	zeros := make([]byte, maxLen)
	ones := make([]byte, maxLen)
	for i := range ones {
		ones[i] = 0xFF
	}
	bufs := []struct {
		name string
		data []byte
	}{{"random", rnd}, {"zeros", zeros}, {"ones", ones}}
	for _, start := range []uint32{0, 0xFFFF, 0x2FFFE} {
		for _, b := range bufs {
			for n := 0; n <= maxLen; n++ {
				want := finishChecksum(refSumBytes(start, b.data[:n]))
				if got := finishChecksum(sumBytes(start, b.data[:n])); got != want {
					t.Fatalf("%s, start %#x, len %d: checksum %#04x, reference %#04x", b.name, start, n, got, want)
				}
			}
		}
	}
}

// FuzzChecksum checks the word-wide sum against the reference on
// arbitrary bytes and starting sums; its seed corpus is in
// testdata/fuzz/FuzzChecksum. Starting sums are bounded the way real
// callers bound them (a pseudo-header sum is well under 2^20), so the
// reference's own uint32 accumulator cannot wrap.
func FuzzChecksum(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, start uint32) {
		start &= 0xFFFFF
		if got, want := finishChecksum(sumBytes(start, data)), finishChecksum(refSumBytes(start, data)); got != want {
			t.Fatalf("start %#x, len %d: checksum %#04x, reference %#04x", start, len(data), got, want)
		}
	})
}

// BenchmarkChecksum sums one full-MSS-sized (1480-byte) payload, the
// per-segment cost of the transport checksum on the bulk datapath.
func BenchmarkChecksum(b *testing.B) {
	buf := make([]byte, 1480)
	rand.New(rand.NewSource(1)).Read(buf)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint16
	for i := 0; i < b.N; i++ {
		sink ^= Checksum(buf)
	}
	_ = sink
}
