package core

import "isacmp/internal/isa"

// WindowedCritPath slides fixed-size windows over the dynamic
// instruction stream and computes the critical path within each
// window, advancing by half the window size between evaluations
// (paper section 6: "for a window size of four, we first look at the
// CP of the first four instructions, then instructions 2-6, then
// 4-8"). The window models a reorder buffer: only dependencies between
// instructions simultaneously in flight constrain issue. Instruction
// latency is not accounted (section 6.1).
//
// Streams whose length is not a multiple of the stride leave a tail of
// instructions no complete window reaches; Results evaluates one final
// window snapped to the end of the stream over them (shorter than Size
// when the whole stream is shorter), so every retired instruction
// contributes to the Figure 2 series. WindowResult accounts partial
// windows by their true length when averaging ILP.
//
// Several window sizes are evaluated simultaneously in one pass over
// the stream. At the paper's stride of W/2 (up to eight even sizes) a
// single-pass tracker carries per-event chain depths across
// half-blocks (see halfBlocks), so no window is ever re-folded. Other
// configurations — an explicit stride other than W/2, odd sizes, more
// than eight sizes — and the final snapped tail window fold each
// window from scratch over a ring buffer sized for the largest window
// (see cpScratch).
type WindowedCritPath struct {
	sizes   []int
	strides []uint64
	ring    []wev
	// ringMask is len(ring)-1; the ring is sized to a power of two so
	// the per-event index and the per-step window scans mask instead of
	// dividing (a hardware divide per step is measurable here — the
	// smallest paper window re-scans every other instruction).
	ringMask uint64
	pos      uint64 // total events seen
	// next[i] is the pos value at which the next window of sizes[i]
	// completes (size, size+stride, size+2*stride, ...), precomputed so
	// the per-event due-check is a compare, not a modulo.
	next    []uint64
	results []windowAccum

	// hb is the single-pass tracker, or nil when the configuration is
	// folded window by window through scratch.
	hb      *halfBlocks
	scratch cpScratch
}

type wev struct {
	srcs   [4]isa.Reg
	dsts   [2]isa.Reg
	nsrc   uint8
	ndst   uint8
	lsize  uint8
	l2size uint8
	ssize  uint8
	laddr  uint64
	l2addr uint64
	saddr  uint64
}

// fill copies the dependence-relevant fields of one event.
func (s *wev) fill(ev *isa.Event) {
	s.srcs = ev.Srcs
	s.dsts = ev.Dsts
	s.nsrc, s.ndst = ev.NSrcs, ev.NDsts
	s.lsize, s.l2size, s.ssize = ev.LoadSize, ev.Load2Size, ev.StoreSize
	s.laddr, s.l2addr, s.saddr = ev.LoadAddr, ev.Load2Addr, ev.StoreAddr
}

// cpScratch is the dependence-tracking state one window evaluation
// needs: the completion depth of every register and of every touched
// memory word. It is reset per window and reused across windows.
// Resets are epoch-stamped: bumping the epoch invalidates every
// register and memory entry in O(1), so the per-window reset — which
// runs every other instruction for the smallest paper window — costs
// two increments instead of a register sweep plus a map clear.
type cpScratch struct {
	reg      [isa.NumRegs]uint64
	regEpoch [isa.NumRegs]uint64
	epoch    uint64
	mem      memScratch
}

func newCPScratch() cpScratch {
	return cpScratch{epoch: 1, mem: newMemScratch()}
}

func (c *cpScratch) reset() {
	c.epoch++
	c.mem.reset()
}

// step folds one event into the dependence state and returns its
// completion depth. Every window folded from scratch — by the sharded
// implementation, by WindowedCritPath outside the single-pass
// tracker's configurations, and for the final tail window — goes
// through this function.
func (c *cpScratch) step(e *wev) uint64 {
	var longest uint64
	for s := uint8(0); s < e.nsrc; s++ {
		r := e.srcs[s]
		if c.regEpoch[r] == c.epoch {
			if v := c.reg[r]; v > longest {
				longest = v
			}
		}
	}
	if e.lsize != 0 {
		first, last := wordSpan(e.laddr, e.lsize)
		for a := first; a <= last; a += 8 {
			if v := c.mem.get(a); v > longest {
				longest = v
			}
		}
	}
	if e.l2size != 0 { // second access of a fused load pair
		first, last := wordSpan(e.l2addr, e.l2size)
		for a := first; a <= last; a += 8 {
			if v := c.mem.get(a); v > longest {
				longest = v
			}
		}
	}
	v := longest + 1
	for d := uint8(0); d < e.ndst; d++ {
		r := e.dsts[d]
		c.reg[r] = v
		c.regEpoch[r] = c.epoch
	}
	if e.ssize != 0 {
		first, last := wordSpan(e.saddr, e.ssize)
		for a := first; a <= last; a += 8 {
			c.mem.set(a, v)
		}
	}
	return v
}

// memScratch is an epoch-stamped open-addressing hash table from
// 8-byte-aligned addresses to chain depths, replacing the Go map the
// scratch previously cleared per window. A slot whose epoch differs
// from the current one is empty, so reset is a single increment; the
// table grows by doubling when the live load factor passes 3/4 and
// then stays sized for the largest window, so the steady-state hot
// loop performs no allocation.
type memScratch struct {
	slots []memSlot
	epoch uint64
	used  int // live entries in the current epoch
}

type memSlot struct {
	key   uint64
	val   uint64
	epoch uint64
}

// newMemScratch sizes the table for a mid-size window; one doubling
// reaches the largest paper window (2000 distinct words).
func newMemScratch() memScratch {
	return memScratch{slots: make([]memSlot, 1<<11), epoch: 1}
}

func (m *memScratch) reset() {
	m.epoch++
	m.used = 0
}

// memHash spreads word addresses over the table (64-bit finalizer;
// the low 3 address bits are always zero and carry no entropy).
func memHash(key uint64) uint64 {
	h := key >> 3
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// get returns the depth recorded at key in the current epoch, or 0.
func (m *memScratch) get(key uint64) uint64 {
	mask := uint64(len(m.slots) - 1)
	for i := memHash(key) & mask; ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.epoch != m.epoch {
			return 0 // stale slot terminates the probe chain
		}
		if s.key == key {
			return s.val
		}
	}
}

// set records the depth at key in the current epoch.
func (m *memScratch) set(key, val uint64) {
	mask := uint64(len(m.slots) - 1)
	for i := memHash(key) & mask; ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.epoch != m.epoch {
			if m.used >= len(m.slots)*3/4 {
				m.grow()
				m.set(key, val)
				return
			}
			*s = memSlot{key: key, val: val, epoch: m.epoch}
			m.used++
			return
		}
		if s.key == key {
			s.val = val
			return
		}
	}
}

// grow doubles the table, rehashing the current epoch's live entries.
func (m *memScratch) grow() {
	old := m.slots
	m.slots = make([]memSlot, 2*len(old))
	m.used = 0
	mask := uint64(len(m.slots) - 1)
	for j := range old {
		if old[j].epoch != m.epoch {
			continue
		}
		i := memHash(old[j].key) & mask
		for m.slots[i].epoch == m.epoch {
			i = (i + 1) & mask
		}
		m.slots[i] = old[j]
		m.used++
	}
}

type windowAccum struct {
	sumCP   uint64
	sumLen  uint64
	windows uint64
}

// add merges another accumulator. Sums and counts are integers, so
// merging is exact and order-independent — the property the sharded
// implementation relies on for determinism.
func (a *windowAccum) add(b windowAccum) {
	a.sumCP += b.sumCP
	a.sumLen += b.sumLen
	a.windows += b.windows
}

// WindowResult reports the aggregate for one window size.
type WindowResult struct {
	// Size is the window size in instructions.
	Size int
	// Windows is the number of windows evaluated, including the final
	// partial window when the stream length leaves one.
	Windows uint64
	// MeanCP is the mean critical path length per window.
	MeanCP float64
	// MeanILP is mean window length / MeanCP, the paper's Figure 2
	// metric. With no partial window the mean length is exactly Size.
	MeanILP float64
}

// finishWindowResult converts an accumulator into the exported result.
// Shared by the sequential and sharded implementations so the float
// arithmetic is identical in both.
func finishWindowResult(size int, acc windowAccum) WindowResult {
	wr := WindowResult{Size: size, Windows: acc.windows}
	if acc.windows > 0 {
		wr.MeanCP = float64(acc.sumCP) / float64(acc.windows)
		if wr.MeanCP > 0 {
			meanLen := float64(acc.sumLen) / float64(acc.windows)
			wr.MeanILP = meanLen / wr.MeanCP
		}
	}
	return wr
}

// WindowAnalyzer is the interface both windowed-CP implementations
// (sequential WindowedCritPath and concurrent ShardedWindowedCP)
// satisfy.
type WindowAnalyzer interface {
	isa.Sink
	Results() []WindowResult
}

// PaperWindowSizes are the window sizes evaluated in the paper.
func PaperWindowSizes() []int { return []int{4, 16, 64, 200, 500, 1000, 2000} }

// windowStrides resolves the per-size stride: an explicit stride is
// clamped to [1, size]; stride 0 selects the paper's size/2.
func windowStrides(sizes []int, stride int) []uint64 {
	out := make([]uint64, len(sizes))
	for i, s := range sizes {
		st := uint64(stride)
		if st == 0 {
			st = uint64(s / 2)
		}
		if st == 0 {
			st = 1
		}
		if s > 0 && st > uint64(s) {
			st = uint64(s)
		}
		out[i] = st
	}
	return out
}

// NewWindowedCritPath evaluates the given window sizes (ascending
// order not required) with the paper's 50% overlap.
func NewWindowedCritPath(sizes []int) *WindowedCritPath {
	return NewWindowedCritPathStride(sizes, 0)
}

// NewWindowedCritPathStride evaluates the given window sizes with an
// explicit stride between windows. stride 0 selects the paper's
// size/2; the paper notes it models commit width or execution-unit
// limits and leaves varying it to future work — this constructor makes
// that experiment possible.
func NewWindowedCritPathStride(sizes []int, stride int) *WindowedCritPath {
	maxSize := 1
	for _, s := range sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	ringLen := 1
	for ringLen < maxSize {
		ringLen <<= 1
	}
	next := make([]uint64, len(sizes))
	for i, s := range sizes {
		if s <= 0 {
			next[i] = ^uint64(0) // never due
			continue
		}
		next[i] = uint64(s)
	}
	strides := windowStrides(sizes, stride)
	return &WindowedCritPath{
		sizes:    append([]int(nil), sizes...),
		strides:  strides,
		ring:     make([]wev, ringLen),
		ringMask: uint64(ringLen - 1),
		next:     next,
		results:  make([]windowAccum, len(sizes)),
		hb:       newHalfBlocks(sizes, strides, ringLen),
		scratch:  newCPScratch(),
	}
}

// Events buffers a whole batch of instructions — the isa.BatchSink
// fast path.
func (w *WindowedCritPath) Events(evs []isa.Event) {
	for i := range evs {
		w.Event(&evs[i])
	}
}

// SinglePass reports whether w runs the single-pass tracker, i.e. its
// sizes and stride are ones the tracker covers. Sharding a stream that
// the tracker takes gains nothing: the tracker on one goroutine is as
// fast as the fold over two.
func (w *WindowedCritPath) SinglePass() bool { return w.hb != nil }

// Event buffers one instruction and evaluates any windows that are due.
func (w *WindowedCritPath) Event(ev *isa.Event) {
	w.ring[w.pos&w.ringMask].fill(ev)
	w.pos++
	if w.hb != nil {
		w.hb.event(ev, w.results)
		return
	}

	for i := range w.next {
		// A window [pos-size, pos) completes when pos >= size and
		// (pos - size) is a multiple of the stride; next holds that
		// arithmetic progression precomputed.
		if w.pos == w.next[i] {
			w.next[i] += w.strides[i]
			size := uint64(w.sizes[i])
			cp := w.windowCP(size)
			w.results[i].sumCP += cp
			w.results[i].sumLen += size
			w.results[i].windows++
		}
	}
}

// windowCP computes the unweighted critical path of the most recent
// `size` buffered events.
func (w *WindowedCritPath) windowCP(size uint64) uint64 {
	return w.cpRange(w.pos-size, w.pos)
}

// cpRange computes the critical path of the buffered events with
// absolute indices [lo, hi); they must still be resident in the ring.
func (w *WindowedCritPath) cpRange(lo, hi uint64) uint64 {
	w.scratch.reset()
	mask := w.ringMask
	var maxCP uint64
	for k := lo; k < hi; k++ {
		if v := w.scratch.step(&w.ring[k&mask]); v > maxCP {
			maxCP = v
		}
	}
	return maxCP
}

// tailSpan returns the absolute index range of the final window for a
// (size, stride) pair over a stream of n events: the window snapped to
// the end of the stream that covers the instructions no complete
// window reached, or ok=false when the last complete window already
// ends exactly at the stream end. For n < size the single (partial)
// window covers the whole stream.
func tailSpan(n, size, stride uint64) (lo, hi uint64, ok bool) {
	if n == 0 || size == 0 {
		return 0, 0, false
	}
	if n < size {
		return 0, n, true
	}
	complete := (n-size)/stride + 1
	if lastEnd := (complete-1)*stride + size; lastEnd < n {
		return n - size, n, true
	}
	return 0, 0, false
}

// Results returns the aggregates for every window size, in the order
// the sizes were given. It may be called repeatedly; the stream can
// keep growing between calls.
func (w *WindowedCritPath) Results() []WindowResult {
	out := make([]WindowResult, len(w.sizes))
	for i, size := range w.sizes {
		acc := w.results[i]
		if size > 0 {
			if lo, hi, ok := tailSpan(w.pos, uint64(size), w.strides[i]); ok {
				acc.add(windowAccum{sumCP: w.cpRange(lo, hi), sumLen: hi - lo, windows: 1})
			}
		}
		out[i] = finishWindowResult(size, acc)
	}
	return out
}
