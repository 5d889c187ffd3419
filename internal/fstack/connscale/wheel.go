// Package connscale holds the connection-scale machinery of the stack:
// a hierarchical timing wheel (O(1) timer arm/disarm, next-deadline
// queries that never scan idle connections) and the SYN-cache entry
// pool. It is deliberately free of TCP knowledge — fstack owns the
// protocol; this package owns the data structures that keep 100k
// connections cheap.
package connscale

import "math"

// Wheel geometry. Three levels of 256 slots each; with the default
// tick of 1<<16 ns (~65.5 µs) the levels span ~16.8 ms, ~4.3 s and
// ~1100 s — delayed ACKs and RTO floors land in level 0, initial RTOs
// and TIME_WAIT in level 1, and only pathological backoffs reach
// level 2. Deadlines past the top level are parked in its last slot
// and re-sorted as the cursor approaches (cascading keeps firing
// exact regardless).
const (
	slotBits  = 8
	numSlots  = 1 << slotBits
	slotMask  = numSlots - 1
	numLevels = 3
)

// DefaultTickShift is the tick granularity fstack uses: 1<<16 ns.
const DefaultTickShift = 16

// Handle names one inserted entry, for O(1) Remove. Handles are
// recycled after the entry fires or is removed; a held handle is valid
// exactly until then.
type Handle int32

// None is the null Handle.
const None Handle = -1

// item is one timer entry: slice-backed so the wheel allocates only
// when it grows past its high-water mark, never in steady state.
// prev/next link the entry into its slot's doubly-linked list by
// index; slot is the flattened level*numSlots+slot it lives in, or -1
// when the item is on the free list.
type item[T any] struct {
	deadline   int64
	value      T
	prev, next Handle
	slot       int32
}

// Wheel is a hierarchical timing wheel over an int64 nanosecond clock.
// Insert and Remove are O(1); Advance is bounded by the slots crossed
// (at most 256 per level) plus the entries actually due; NextDeadline
// is O(1) while the cached minimum holds. A recompute costs at most
// numLevels*numSlots slot probes (normally a few per level, see
// recomputeMin) plus one list walk per probed slot that is dirty:
// every slot caches its own minimum, and only removing an entry at or
// below it forces the walk (Varghese & Lauck's per-bucket
// bookkeeping). A level-1 slot holding hundreds of TIME_WAIT entries
// is therefore walked once per removal of its minimum, not once per
// recompute. Firing is exact:
// entries carry their precise deadline, and Advance only fires those
// with deadline <= now — the tick merely buckets them.
//
// Not safe for concurrent use; fstack drives it under the stack mutex.
type Wheel[T any] struct {
	shift   uint
	start   int64
	curTick int64

	slots [numLevels * numSlots]Handle
	items []item[T]
	free  Handle

	// slotMin is each non-empty slot's exact earliest deadline unless
	// slotDirty is set: push keeps it current, and unlinking an entry at
	// (or below) it marks the slot for a lazy walk in recomputeMin.
	slotMin   [numLevels * numSlots]int64
	slotDirty [numLevels * numSlots]bool

	size      int
	levelSize [numLevels]int

	// minCache is the exact earliest deadline while minValid; Insert
	// keeps it current, and removing or firing an entry at (or below)
	// it invalidates for a lazy recompute.
	minCache int64
	minValid bool
}

// New builds a wheel whose tick is 1<<tickShift nanoseconds, with the
// tick origin at startNS (deadlines before it are treated as due
// immediately).
func New[T any](startNS int64, tickShift uint) *Wheel[T] {
	w := &Wheel[T]{shift: tickShift, start: startNS, free: None}
	for i := range w.slots {
		w.slots[i] = None
	}
	return w
}

// Len returns the number of live entries.
func (w *Wheel[T]) Len() int { return w.size }

// tickOf maps an instant to its tick index (clamped to the cursor so
// past deadlines land in the current slot and fire on the next
// Advance).
func (w *Wheel[T]) tickOf(at int64) int64 {
	t := (at - w.start) >> w.shift
	if t < w.curTick {
		t = w.curTick
	}
	return t
}

// Insert registers a deadline and returns its handle.
func (w *Wheel[T]) Insert(deadline int64, v T) Handle {
	h := w.alloc()
	it := &w.items[h]
	it.deadline = deadline
	it.value = v
	w.place(h, deadline)
	w.size++
	if w.minValid && deadline < w.minCache {
		w.minCache = deadline
	}
	return h
}

// Remove unregisters a live entry. The handle must be one returned by
// Insert that has neither fired nor been removed.
func (w *Wheel[T]) Remove(h Handle) {
	it := &w.items[h]
	if it.slot < 0 {
		panic("connscale: Remove of dead timer handle")
	}
	w.unlink(h)
	w.dropMin(it.deadline)
	w.size--
	w.levelSize[it.slot/numSlots]--
	w.freeItem(h)
}

// Advance moves the wheel to now, calling fire for every entry whose
// deadline has arrived (deadline <= now). Firing order is
// deterministic (slot order, then reverse insertion order within a
// slot). The callback may Insert new entries — they are not visited
// by this Advance — but must not Remove other entries; the common
// pattern is a callback that only records the fired value.
func (w *Wheel[T]) Advance(now int64, fire func(T)) {
	old := w.curTick
	t := (now - w.start) >> w.shift
	if t < old {
		t = old
	}
	w.curTick = t
	if w.size == 0 {
		return
	}
	// Level 0 first, before cascades repopulate its slots: the slot
	// the cursor left (it can still hold mid-tick deadlines from the
	// previous visit), the crossed slots, and the new current slot,
	// each entry checked against its exact deadline — a deadline later
	// within the current tick stays parked until a later Advance
	// passes it.
	if n := t - old; n >= numSlots {
		for s := 0; s < numSlots; s++ {
			w.expire(s, now, fire)
		}
	} else {
		for i := int64(0); i <= n; i++ {
			w.expire(int((old+i)&slotMask), now, fire)
		}
	}
	// Upper levels: every slot the level cursor crossed is emptied and
	// its entries either fire (due) or cascade down to their exact
	// lower-level position relative to the new cursor.
	for k := 1; k < numLevels; k++ {
		if w.levelSize[k] == 0 {
			continue
		}
		shift := uint(slotBits * k)
		cOld, cNew := old>>shift, t>>shift
		if n := cNew - cOld; n >= numSlots {
			for s := 0; s < numSlots; s++ {
				w.cascade(k, s, now, fire)
			}
		} else {
			for i := int64(1); i <= n; i++ {
				w.cascade(k, int((cOld+i)&slotMask), now, fire)
			}
		}
	}
}

// NextDeadline returns the exact earliest deadline held, or
// math.MaxInt64 when the wheel is empty.
func (w *Wheel[T]) NextDeadline() int64 {
	if w.size == 0 {
		return math.MaxInt64
	}
	if !w.minValid {
		w.recomputeMin()
	}
	return w.minCache
}

// place buckets a live item by its deadline relative to the current
// cursor: the first level whose 256-slot window reaches the deadline's
// tick, with the top level's last slot catching everything farther.
func (w *Wheel[T]) place(h Handle, deadline int64) {
	t := w.tickOf(deadline)
	for k := 0; k < numLevels; k++ {
		shift := uint(slotBits * k)
		cursor := w.curTick >> shift
		v := t >> shift
		if v < cursor+numSlots || k == numLevels-1 {
			if v >= cursor+numSlots {
				v = cursor + numSlots - 1
			}
			w.push(k*numSlots+int(v&slotMask), h)
			w.levelSize[k]++
			return
		}
	}
}

// expire fires the due entries of one level-0 slot, leaving not-yet-due
// entries (same tick, later instant) in place.
func (w *Wheel[T]) expire(slot int, now int64, fire func(T)) {
	h := w.slots[slot]
	for h != None {
		it := &w.items[h]
		next := it.next
		if it.deadline <= now {
			v := it.value
			w.unlink(h)
			w.dropMin(it.deadline)
			w.size--
			w.levelSize[0]--
			w.freeItem(h)
			fire(v)
		}
		h = next
	}
}

// cascade empties one upper-level slot: due entries fire, the rest are
// re-placed relative to the new cursor (dropping to a lower level).
func (w *Wheel[T]) cascade(level, slot int, now int64, fire func(T)) {
	idx := level*numSlots + slot
	h := w.slots[idx]
	w.slots[idx] = None
	for h != None {
		it := &w.items[h]
		next := it.next
		w.levelSize[level]--
		if it.deadline <= now {
			v := it.value
			w.dropMin(it.deadline)
			w.size--
			w.freeItem(h)
			fire(v)
		} else {
			it.prev, it.next = None, None
			w.place(h, it.deadline)
		}
		h = next
	}
}

// recomputeMin rebuilds the cached minimum. Every entry of a slot lies
// at or after the slot's start instant: a normally placed entry within
// the slot's span, one parked in the top level's last slot (see place)
// beyond it. So scanning each level outward from its cursor can stop
// at the first slot that starts at or after the best minimum so far;
// on the lower levels that is the slot right after the first
// non-empty one. Parked entries are why the top level may need more:
// a slot that was the parking slot under an earlier cursor can hold
// deadlines later than those of slots after it.
func (w *Wheel[T]) recomputeMin() {
	m := int64(math.MaxInt64)
	for k := 0; k < numLevels; k++ {
		if w.levelSize[k] == 0 {
			continue
		}
		shift := uint(slotBits * k)
		cursor := w.curTick >> shift
		for i := int64(0); i < numSlots; i++ {
			if w.start+((cursor+i)<<shift<<w.shift) >= m {
				break
			}
			idx := k*numSlots + int((cursor+i)&slotMask)
			if w.slots[idx] != None {
				m = min(m, w.slotMinOf(idx))
			}
		}
	}
	w.minCache = m
	w.minValid = true
}

// slotMinOf returns a non-empty slot's earliest deadline, walking its
// list only when an unlink has invalidated the cached value.
func (w *Wheel[T]) slotMinOf(idx int) int64 {
	if w.slotDirty[idx] {
		m := int64(math.MaxInt64)
		for h := w.slots[idx]; h != None; h = w.items[h].next {
			if d := w.items[h].deadline; d < m {
				m = d
			}
		}
		w.slotMin[idx] = m
		w.slotDirty[idx] = false
	}
	return w.slotMin[idx]
}

// dropMin invalidates the cached minimum when an entry at (or below)
// it leaves the wheel.
func (w *Wheel[T]) dropMin(deadline int64) {
	if w.minValid && deadline <= w.minCache {
		w.minValid = false
	}
}

// alloc takes an item off the free list, growing the backing slice
// only past its high-water mark.
func (w *Wheel[T]) alloc() Handle {
	if w.free != None {
		h := w.free
		w.free = w.items[h].next
		w.items[h].prev, w.items[h].next = None, None
		return h
	}
	w.items = append(w.items, item[T]{prev: None, next: None, slot: -1})
	return Handle(len(w.items) - 1)
}

// freeItem returns an item to the free list, dropping its value so a
// pooled pointer cannot pin the referent.
func (w *Wheel[T]) freeItem(h Handle) {
	it := &w.items[h]
	var zero T
	it.value = zero
	it.slot = -1
	it.prev = None
	it.next = w.free
	w.free = h
}

// push links an item at the head of a slot list, lowering the slot's
// cached minimum (an empty slot takes the item's deadline outright).
func (w *Wheel[T]) push(idx int, h Handle) {
	it := &w.items[h]
	it.prev = None
	it.next = w.slots[idx]
	if it.next != None {
		w.items[it.next].prev = h
		if it.deadline < w.slotMin[idx] {
			w.slotMin[idx] = it.deadline
		}
	} else {
		w.slotMin[idx] = it.deadline
		w.slotDirty[idx] = false
	}
	w.slots[idx] = h
	it.slot = int32(idx)
}

// unlink detaches an item from its slot list, marking the slot dirty
// when the item may have been its minimum.
func (w *Wheel[T]) unlink(h Handle) {
	it := &w.items[h]
	if it.deadline <= w.slotMin[it.slot] {
		w.slotDirty[it.slot] = true
	}
	if it.prev != None {
		w.items[it.prev].next = it.next
	} else {
		w.slots[it.slot] = it.next
	}
	if it.next != None {
		w.items[it.next].prev = it.prev
	}
}
