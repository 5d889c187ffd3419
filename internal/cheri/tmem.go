package cheri

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// TMem is tagged memory: a flat byte array plus one validity-tag bit per
// 16-byte granule. Capabilities stored in memory keep their tag only while
// the granule holds exactly the stored capability bits; any data store
// into a granule clears its tag (capability non-forgeability).
//
// A TMem also keeps the out-of-band capability values for tagged granules.
// Real hardware reconstructs capabilities from their 128-bit pattern; this
// model stores the Cap value alongside so that no encoding is needed. The
// data bytes written for a capability are a best-effort rendering of
// (base, addr) so that plain data reads of capability memory see something
// deterministic.
//
// Concurrency: distinct compartments and device queues own disjoint
// ranges, so data copies never overlap (the ownership discipline of real
// memory). The tag structures, however, are shared bookkeeping and are
// guarded by a mutex, so concurrent compartment loops (paper Scenario 1
// runs two) may fault-check and copy in parallel safely. The tag words
// are atomics so that a data store can see, without the mutex, that the
// range it wrote holds no tag — the common case for every packet copy.
type TMem struct {
	data []byte
	size uint64

	tagMu sync.Mutex
	// tags is the tag bitmap: bit g%64 of word g/64 is granule g's tag.
	// Written under tagMu; clearTags reads it lock-free first.
	tags []atomic.Uint64
	caps map[uint64]Cap // granule-aligned address -> stored capability
}

// NewTMem allocates tagged memory of the given size (rounded up to a
// granule multiple).
func NewTMem(size uint64) *TMem {
	size = (size + CapSize - 1) &^ (CapSize - 1)
	return &TMem{
		data: make([]byte, size),
		tags: make([]atomic.Uint64, (size/CapSize+63)/64),
		caps: make(map[uint64]Cap),
		size: size,
	}
}

// Size returns the memory size in bytes.
func (m *TMem) Size() uint64 { return m.size }

// Root returns the architectural root capability over all of memory.
func (m *TMem) Root() Cap { return NewRoot(0, m.size, PermAll) }

// tagged reports granule g's tag.
func (m *TMem) tagged(g uint64) bool { return m.tags[g/64].Load()&(1<<(g%64)) != 0 }

// granuleMask selects, in bitmap word w, the granules of [first, last].
func granuleMask(w, first, last uint64) uint64 {
	mask := ^uint64(0)
	if w == first/64 {
		mask &= ^uint64(0) << (first % 64)
	}
	if w == last/64 {
		mask &= ^uint64(0) >> (63 - last%64)
	}
	return mask
}

// clearTags invalidates every granule overlapping [addr, addr+n). It
// checks the bitmap a word (64 granules) at a time, so an untagged
// frame-sized store reads two or three words, and it takes tagMu only
// when one of them has a tag to clear. A store owns its range, so no
// tag appears there concurrently.
func (m *TMem) clearTags(addr uint64, n int) {
	if n <= 0 {
		return
	}
	first := addr / CapSize
	last := (addr + uint64(n) - 1) / CapSize
	w := first / 64
	for w <= last/64 && m.tags[w].Load()&granuleMask(w, first, last) == 0 {
		w++
	}
	if w > last/64 {
		return
	}
	m.tagMu.Lock()
	defer m.tagMu.Unlock()
	for ; w <= last/64; w++ {
		hit := m.tags[w].Load() & granuleMask(w, first, last)
		if hit == 0 {
			continue
		}
		m.tags[w].And(^hit)
		for ; hit != 0; hit &= hit - 1 {
			g := w*64 + uint64(bits.TrailingZeros64(hit))
			delete(m.caps, g*CapSize)
		}
	}
}

// inRange reports whether [addr, addr+n) is inside physical memory.
func (m *TMem) inRange(addr uint64, n int) bool {
	end := addr + uint64(n)
	return n > 0 && end >= addr && end <= m.size
}

// Load copies len(dst) bytes at addr into dst through capability c.
func (m *TMem) Load(c Cap, addr uint64, dst []byte) error {
	if err := c.CheckLoad(addr, len(dst)); err != nil {
		return err
	}
	if !m.inRange(addr, len(dst)) {
		return newFault(FaultBounds, "load", c, addr, len(dst))
	}
	copy(dst, m.data[addr:])
	return nil
}

// Store copies src into memory at addr through capability c, clearing
// the tags of every granule it touches.
func (m *TMem) Store(c Cap, addr uint64, src []byte) error {
	if err := c.CheckStore(addr, len(src)); err != nil {
		return err
	}
	if !m.inRange(addr, len(src)) {
		return newFault(FaultBounds, "store", c, addr, len(src))
	}
	copy(m.data[addr:], src)
	m.clearTags(addr, len(src))
	return nil
}

// LoadU16 loads a little-endian uint16 through c.
func (m *TMem) LoadU16(c Cap, addr uint64) (uint16, error) {
	if err := c.CheckLoad(addr, 2); err != nil {
		return 0, err
	}
	if !m.inRange(addr, 2) {
		return 0, newFault(FaultBounds, "load", c, addr, 2)
	}
	return binary.LittleEndian.Uint16(m.data[addr:]), nil
}

// LoadU32 loads a little-endian uint32 through c.
func (m *TMem) LoadU32(c Cap, addr uint64) (uint32, error) {
	if err := c.CheckLoad(addr, 4); err != nil {
		return 0, err
	}
	if !m.inRange(addr, 4) {
		return 0, newFault(FaultBounds, "load", c, addr, 4)
	}
	return binary.LittleEndian.Uint32(m.data[addr:]), nil
}

// LoadU64 loads a little-endian uint64 through c.
func (m *TMem) LoadU64(c Cap, addr uint64) (uint64, error) {
	if err := c.CheckLoad(addr, 8); err != nil {
		return 0, err
	}
	if !m.inRange(addr, 8) {
		return 0, newFault(FaultBounds, "load", c, addr, 8)
	}
	return binary.LittleEndian.Uint64(m.data[addr:]), nil
}

// StoreU16 stores a little-endian uint16 through c.
func (m *TMem) StoreU16(c Cap, addr uint64, v uint16) error {
	if err := c.CheckStore(addr, 2); err != nil {
		return err
	}
	if !m.inRange(addr, 2) {
		return newFault(FaultBounds, "store", c, addr, 2)
	}
	binary.LittleEndian.PutUint16(m.data[addr:], v)
	m.clearTags(addr, 2)
	return nil
}

// StoreU32 stores a little-endian uint32 through c.
func (m *TMem) StoreU32(c Cap, addr uint64, v uint32) error {
	if err := c.CheckStore(addr, 4); err != nil {
		return err
	}
	if !m.inRange(addr, 4) {
		return newFault(FaultBounds, "store", c, addr, 4)
	}
	binary.LittleEndian.PutUint32(m.data[addr:], v)
	m.clearTags(addr, 4)
	return nil
}

// StoreU64 stores a little-endian uint64 through c.
func (m *TMem) StoreU64(c Cap, addr uint64, v uint64) error {
	if err := c.CheckStore(addr, 8); err != nil {
		return err
	}
	if !m.inRange(addr, 8) {
		return newFault(FaultBounds, "store", c, addr, 8)
	}
	binary.LittleEndian.PutUint64(m.data[addr:], v)
	m.clearTags(addr, 8)
	return nil
}

// StoreCap stores capability v at the granule-aligned address addr
// through c, preserving v's tag.
func (m *TMem) StoreCap(c Cap, addr uint64, v Cap) error {
	if addr%CapSize != 0 {
		return newFault(FaultAlignment, "storecap", c, addr, CapSize)
	}
	if !c.tag {
		return newFault(FaultTag, "storecap", c, addr, CapSize)
	}
	if c.Sealed() {
		return newFault(FaultSeal, "storecap", c, addr, CapSize)
	}
	if !c.perms.Has(PermStore) {
		return newFault(FaultPermStore, "storecap", c, addr, CapSize)
	}
	if v.tag && !c.perms.Has(PermStoreCap) {
		return newFault(FaultPermStoreCap, "storecap", c, addr, CapSize)
	}
	if v.tag && !v.perms.Has(PermGlobal) && !c.perms.Has(PermStoreLocalCap) {
		return newFault(FaultPermStoreCap, "storecap", c, addr, CapSize)
	}
	if !c.InBounds(addr, CapSize) {
		return newFault(FaultBounds, "storecap", c, addr, CapSize)
	}
	if !m.inRange(addr, CapSize) {
		return newFault(FaultBounds, "storecap", c, addr, CapSize)
	}
	// Render a deterministic data view (base, addr) of the capability.
	binary.LittleEndian.PutUint64(m.data[addr:], v.base)
	binary.LittleEndian.PutUint64(m.data[addr+8:], v.addr)
	m.tagMu.Lock()
	defer m.tagMu.Unlock()
	g := addr / CapSize
	if v.tag {
		m.tags[g/64].Or(1 << (g % 64))
		m.caps[addr] = v
	} else {
		m.tags[g/64].And(^uint64(1 << (g % 64)))
		delete(m.caps, addr)
	}
	return nil
}

// LoadCap loads the capability stored at the granule-aligned address addr
// through c. If the granule's tag is clear the result is an untagged
// capability built from the raw bytes (as on hardware). Loading a tagged
// capability without PermLoadCap yields the value with the tag stripped.
func (m *TMem) LoadCap(c Cap, addr uint64) (Cap, error) {
	if addr%CapSize != 0 {
		return NullCap, newFault(FaultAlignment, "loadcap", c, addr, CapSize)
	}
	if err := c.CheckLoad(addr, CapSize); err != nil {
		f := err.(*Fault)
		f.Op = "loadcap"
		return NullCap, f
	}
	if !m.inRange(addr, CapSize) {
		return NullCap, newFault(FaultBounds, "loadcap", c, addr, CapSize)
	}
	m.tagMu.Lock()
	tagged := m.tagged(addr / CapSize)
	v, hasCap := m.caps[addr]
	m.tagMu.Unlock()
	if tagged && hasCap {
		if !c.perms.Has(PermLoadCap) {
			v.tag = false
		}
		return v, nil
	}
	// Untagged granule: reconstruct a null-derived value from raw bytes.
	v = Cap{
		base:  binary.LittleEndian.Uint64(m.data[addr:]),
		addr:  binary.LittleEndian.Uint64(m.data[addr+8:]),
		otype: OTypeUnsealed,
	}
	return v, nil
}

// TagAt reports the tag bit of the granule containing addr.
func (m *TMem) TagAt(addr uint64) bool {
	if addr >= m.size {
		return false
	}
	m.tagMu.Lock()
	defer m.tagMu.Unlock()
	return m.tagged(addr / CapSize)
}

// --- unchecked access (device DMA in raw mode, Baseline scenario) ---

// RawSlice returns a direct view of [addr, addr+n) with no capability
// check. It models the unprotected accesses of the non-CHERI Baseline and
// of bus masters that bypass capability checks. Tags are NOT cleared:
// callers that mutate through the slice must call RawInvalidate if the
// range may hold capabilities (device queues never do).
func (m *TMem) RawSlice(addr uint64, n int) ([]byte, error) {
	if !m.inRange(addr, n) {
		return nil, fmt.Errorf("tmem: raw access [%#x,+%d) outside memory of size %#x", addr, n, m.size)
	}
	return m.data[addr : addr+uint64(n) : addr+uint64(n)], nil
}

// RawInvalidate clears capability tags over [addr, addr+n); bus masters
// that write memory without capabilities must invalidate the tags the
// write shadows.
func (m *TMem) RawInvalidate(addr uint64, n int) {
	if m.inRange(addr, n) {
		m.clearTags(addr, n)
	}
}

// CheckedSlice verifies a load+store capability over the whole range and
// returns the backing slice. It models a checked bulk access (the bounds
// and permission checks execute once; the data movement is then performed
// at memcpy speed, as the hardware pipeline does for a sequence of
// in-bounds accesses). Tags in the range are cleared, as any data store
// would.
func (m *TMem) CheckedSlice(c Cap, addr uint64, n int) ([]byte, error) {
	if err := c.CheckLoad(addr, n); err != nil {
		return nil, err
	}
	if err := c.CheckStore(addr, n); err != nil {
		return nil, err
	}
	if !m.inRange(addr, n) {
		return nil, newFault(FaultBounds, "slice", c, addr, n)
	}
	m.clearTags(addr, n)
	return m.data[addr : addr+uint64(n) : addr+uint64(n)], nil
}

// CheckedSliceRO verifies a load capability over the whole range and
// returns the backing slice for reading.
func (m *TMem) CheckedSliceRO(c Cap, addr uint64, n int) ([]byte, error) {
	if err := c.CheckLoad(addr, n); err != nil {
		return nil, err
	}
	if !m.inRange(addr, n) {
		return nil, newFault(FaultBounds, "slice", c, addr, n)
	}
	return m.data[addr : addr+uint64(n) : addr+uint64(n)], nil
}
