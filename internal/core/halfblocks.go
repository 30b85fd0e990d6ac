package core

import "isacmp/internal/isa"

// halfBlocks computes the paper's windowed critical path — windows of
// W events at stride W/2 — in one pass over the stream, without
// re-folding any window.
//
// With S = W/2 the stream divides into half-blocks [kS, (k+1)S), and
// window k covers exactly half-blocks k and k+1. Each event carries two
// chain depths per window size:
//
//   - young: the longest dependence chain ending at the event that
//     stays inside the event's own half-block;
//   - old: the longest such chain that stays inside the previous
//     half-block and the event's own.
//
// A producer p of the event (the last writer of a source register, or
// of an 8-byte word a load touches) contributes by where it sits: in
// the event's half-block, p's young and old depths extend the event's
// young and old depths; in the previous half-block, p's young depth
// extends the event's old depth; anything older lies outside every
// window the event is in. The last writer is the only candidate: a
// later writer of the same location would sit between p and the event,
// so if p is outside a window, no writer of that location is inside it
// before the event.
//
// When half-block k+1 closes, window k's critical path is the larger of
// half-block k's largest young depth (chains wholly in the first half)
// and half-block k+1's largest old depth (chains ending in the second).
// The integer sums are those of folding every window from scratch.
//
// The writer tables hold only positions. Membership is a comparison of
// the producer's position with the start of the reader's half-block and
// of the one before it, so nothing is reset per window and each touched
// location costs one probe.
type halfBlocks struct {
	n    int                       // window sizes in use
	half [maxHalfBlockSizes]uint64 // S = W/2 per size
	// reach is the largest window size: a producer at that distance or
	// farther lies before the previous half-block of every size.
	reach uint64

	start [maxHalfBlockSizes]uint64 // first position of the current half-block
	prev  [maxHalfBlockSizes]uint64 // first position of the previous half-block
	maxY  [maxHalfBlockSizes]uint16 // largest young depth in the current half-block
	maxO  [maxHalfBlockSizes]uint16 // largest old depth in the current half-block
	prevY [maxHalfBlockSizes]uint16 // largest young depth in the previous half-block
	// nextClose is the first position past the soonest-closing
	// half-block of any size.
	nextClose uint64

	// pos is the position of the next event, offset by halfBlockBase.
	pos   uint64
	depth []blockDepths // depths of the last len(depth) events, by pos&mask
	mask  uint64
	reg   [isa.NumRegs]uint64 // last writer position per register
	mem   wordWriters
}

// maxHalfBlockSizes is the number of window sizes the single-pass
// tracker carries per event (the paper evaluates seven).
const maxHalfBlockSizes = 8

// maxHalfBlockWindow is the largest window the tracker takes: a chain
// inside a window is at most W events long and depths are uint16.
const maxHalfBlockWindow = 65534

// halfBlockBase offsets every position, so that a zero entry in the
// writer tables — a register or word never written — lies farther back
// than any half-block reaches.
const halfBlockBase = 1 << 16

type blockDepths struct {
	young, old [maxHalfBlockSizes]uint16
}

// newHalfBlocks returns the single-pass tracker for sizes at stride
// W/2 each, or nil when the formulation does not cover the
// configuration: more than maxHalfBlockSizes sizes, a size that is
// odd, non-positive or above maxHalfBlockWindow, or a stride other
// than the size's half. ringLen is a power of two no smaller than the
// largest size.
func newHalfBlocks(sizes []int, strides []uint64, ringLen int) *halfBlocks {
	if len(sizes) > maxHalfBlockSizes {
		return nil
	}
	h := &halfBlocks{
		n:     len(sizes),
		pos:   halfBlockBase,
		depth: make([]blockDepths, ringLen),
		mask:  uint64(ringLen - 1),
		mem:   wordWriters{pages: make(map[uint64]*[cpPageWords]uint64)},
	}
	h.nextClose = ^uint64(0)
	for i, s := range sizes {
		if s <= 0 || s%2 != 0 || s > maxHalfBlockWindow || strides[i] != uint64(s/2) {
			return nil
		}
		h.half[i] = uint64(s / 2)
		h.start[i] = halfBlockBase
		h.prev[i] = halfBlockBase - h.half[i] // no writer sits there
		h.reach = max(h.reach, uint64(s))
		h.nextClose = min(h.nextClose, halfBlockBase+h.half[i])
	}
	return h
}

// event folds one event into the tracker and adds the window each
// closing half-block completes to results.
func (h *halfBlocks) event(ev *isa.Event, results []windowAccum) {
	var y, o [maxHalfBlockSizes]uint16
	for k := uint8(0); k < ev.NSrcs; k++ {
		h.take(h.reg[ev.Srcs[k]], &y, &o)
	}
	if ev.LoadSize != 0 {
		first, last := wordSpan(ev.LoadAddr, ev.LoadSize)
		for a := first; a <= last; a += 8 {
			h.take(h.mem.get(a), &y, &o)
		}
	}
	if ev.Load2Size != 0 { // second access of a fused load pair
		first, last := wordSpan(ev.Load2Addr, ev.Load2Size)
		for a := first; a <= last; a += 8 {
			h.take(h.mem.get(a), &y, &o)
		}
	}

	d := &h.depth[h.pos&h.mask]
	for i := 0; i < h.n; i++ {
		yi, oi := y[i]+1, o[i]+1
		d.young[i], d.old[i] = yi, oi
		h.maxY[i] = max(h.maxY[i], yi)
		h.maxO[i] = max(h.maxO[i], oi)
	}
	if h.pos+1 == h.nextClose {
		h.close(results)
	}

	for k := uint8(0); k < ev.NDsts; k++ {
		h.reg[ev.Dsts[k]] = h.pos
	}
	if ev.StoreSize != 0 {
		first, last := wordSpan(ev.StoreAddr, ev.StoreSize)
		for a := first; a <= last; a += 8 {
			h.mem.set(a, h.pos)
		}
	}
	h.pos++
}

// close ends every half-block whose last event was just folded in.
// Closing half-block k+1 completes window k, which covers k and k+1.
func (h *halfBlocks) close(results []windowAccum) {
	end := h.pos + 1
	h.nextClose = ^uint64(0)
	for i := 0; i < h.n; i++ {
		if h.start[i]+h.half[i] == end {
			if h.start[i] > halfBlockBase { // half-block k exists
				results[i].add(windowAccum{
					sumCP:   uint64(max(h.prevY[i], h.maxO[i])),
					sumLen:  2 * h.half[i],
					windows: 1,
				})
			}
			h.prev[i], h.start[i] = h.start[i], end
			h.prevY[i] = h.maxY[i]
			h.maxY[i], h.maxO[i] = 0, 0
		}
		h.nextClose = min(h.nextClose, h.start[i]+h.half[i])
	}
}

// take merges the depths of the producer written at position p into
// the current event's young (y) and old (o) candidates.
func (h *halfBlocks) take(p uint64, y, o *[maxHalfBlockSizes]uint16) {
	if h.pos-p >= h.reach {
		return
	}
	d := &h.depth[p&h.mask]
	for i := 0; i < h.n; i++ {
		yd, od := d.young[i], d.old[i]
		if p < h.start[i] { // previous half-block: only its own chain
			yd, od = 0, yd
		}
		if p < h.prev[i] { // before the previous half-block
			od = 0
		}
		y[i] = max(y[i], yd)
		o[i] = max(o[i], od)
	}
}

// wordWriters maps 8-byte-aligned addresses to the position of their
// last writer: a directory of 4096-word pages with a one-entry cache of
// the last page touched. A word never written reads 0. Streams walk
// arrays sequentially, so consecutive accesses mostly hit the cached
// page.
type wordWriters struct {
	pages  map[uint64]*[cpPageWords]uint64
	lastNo uint64
	last   *[cpPageWords]uint64 // pages[lastNo], possibly nil
}

func (m *wordWriters) page(no uint64) *[cpPageWords]uint64 {
	if no != m.lastNo {
		m.lastNo, m.last = no, m.pages[no]
	}
	return m.last
}

func (m *wordWriters) get(addr uint64) uint64 {
	w := addr >> 3
	if pg := m.page(w >> cpPageBits); pg != nil {
		return pg[w&cpPageMask]
	}
	return 0
}

func (m *wordWriters) set(addr, pos uint64) {
	w := addr >> 3
	pg := m.page(w >> cpPageBits)
	if pg == nil {
		pg = new([cpPageWords]uint64)
		m.pages[w>>cpPageBits] = pg
		m.last = pg
	}
	pg[w&cpPageMask] = pos
}
