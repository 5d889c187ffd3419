package fstack

import (
	"encoding/binary"
	"math/bits"
)

// Checksum computes the RFC 1071 internet checksum of data.
func Checksum(data []byte) uint16 {
	return finishChecksum(sumBytes(0, data))
}

// sumBytes adds data, as 16-bit big-endian words, to a running ones'
// complement sum. The result is congruent to the 16-bit word sum
// modulo 0xFFFF and is zero only when that sum is (RFC 1071 §2), so
// finishChecksum gives the same checksum as a word-at-a-time loop.
//
// The bulk of the buffer is summed as 64-bit big-endian words with
// end-around carry: 2^16 ≡ 1 (mod 0xFFFF), so a 64-bit word is
// congruent to the sum of its four 16-bit words. The accumulator is
// folded to 17 bits before the trailing (< 8) bytes are added, so the
// tail cannot overflow it whatever the starting sum.
func sumBytes(sum uint32, data []byte) uint32 {
	acc := uint64(sum)
	var carry uint64
	for len(data) >= 32 {
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data[0:8]), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data[8:16]), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data[16:24]), carry)
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data[24:32]), carry)
		data = data[32:]
	}
	for len(data) >= 8 {
		acc, carry = bits.Add64(acc, binary.BigEndian.Uint64(data), carry)
		data = data[8:]
	}
	// End-around carry: acc+carry cannot carry again, since a carry
	// out of the last add leaves acc <= 2^64-2.
	acc += carry

	// Fold 64 -> 33 -> 32 -> 17 bits; each step keeps the value
	// congruent and non-zero when it was non-zero.
	acc = acc>>32 + acc&0xFFFFFFFF
	acc = acc>>32 + acc&0xFFFFFFFF
	s := uint32(acc>>16) + uint32(acc&0xFFFF)

	for len(data) >= 2 {
		s += uint32(binary.BigEndian.Uint16(data))
		data = data[2:]
	}
	if len(data) == 1 {
		s += uint32(data[0]) << 8
	}
	return s
}

// finishChecksum folds the carries and complements.
func finishChecksum(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + sum>>16
	}
	return ^uint16(sum)
}

// pseudoHeaderSum starts a TCP/UDP checksum with the IPv4 pseudo header.
func pseudoHeaderSum(src, dst IPv4Addr, proto uint8, length int) uint32 {
	var sum uint32
	sum += uint32(src[0])<<8 | uint32(src[1])
	sum += uint32(src[2])<<8 | uint32(src[3])
	sum += uint32(dst[0])<<8 | uint32(dst[1])
	sum += uint32(dst[2])<<8 | uint32(dst[3])
	sum += uint32(proto)
	sum += uint32(length)
	return sum
}

// transportChecksum computes the TCP/UDP checksum over header+payload.
func transportChecksum(src, dst IPv4Addr, proto uint8, segment []byte) uint16 {
	sum := pseudoHeaderSum(src, dst, proto, len(segment))
	return finishChecksum(sumBytes(sum, segment))
}
