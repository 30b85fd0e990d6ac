package core

import (
	"fmt"
	"math/rand"
	"testing"

	"isacmp/internal/isa"
)

// The windowed-CP oracle is a deliberately naive reference for the
// Figure 2 analysis. It shares no code with the package under test —
// no dependence scratch, no word-span helper, no page table, no
// single-pass tracker. It records the whole stream, builds its explicit
// read-after-write graph (the last writer of every register and every
// 8-byte word an event reads), cuts every window as an explicit slice
// of the stream and computes each window's critical path by dynamic
// programming in trace order.

// rawGraph is the read-after-write dependence graph of a stream:
// preds[j] lists the events that last wrote a register or memory word
// event j reads, each once.
type rawGraph struct {
	preds [][]int
}

// buildRAWGraph records the producers of every event. The zero
// register (RISC-V x0; AArch64's XZR shares slot 31 with SP and cannot
// be told apart by number) never carries a dependence.
func buildRAWGraph(evs []isa.Event, arch isa.Arch) rawGraph {
	isZero := func(r isa.Reg) bool { return arch == isa.RV64 && r == isa.IntReg(0) }
	regWriter := map[isa.Reg]int{}
	wordWriter := map[uint64]int{}
	words := func(addr uint64, size uint8) (lo, hi uint64) {
		return addr >> 3, (addr + uint64(size) - 1) >> 3
	}
	g := rawGraph{preds: make([][]int, len(evs))}
	for j := range evs {
		ev := &evs[j]
		seen := map[int]bool{}
		add := func(p int, ok bool) {
			if ok && !seen[p] {
				seen[p] = true
				g.preds[j] = append(g.preds[j], p)
			}
		}
		for k := 0; k < int(ev.NSrcs); k++ {
			if r := ev.Srcs[k]; !isZero(r) {
				p, ok := regWriter[r]
				add(p, ok)
			}
		}
		for _, acc := range []struct {
			addr uint64
			size uint8
		}{{ev.LoadAddr, ev.LoadSize}, {ev.Load2Addr, ev.Load2Size}} {
			if acc.size == 0 {
				continue
			}
			lo, hi := words(acc.addr, acc.size)
			for w := lo; w <= hi; w++ {
				p, ok := wordWriter[w]
				add(p, ok)
			}
		}
		for k := 0; k < int(ev.NDsts); k++ {
			if r := ev.Dsts[k]; !isZero(r) {
				regWriter[r] = j
			}
		}
		if ev.StoreSize != 0 {
			lo, hi := words(ev.StoreAddr, ev.StoreSize)
			for w := lo; w <= hi; w++ {
				wordWriter[w] = j
			}
		}
	}
	return g
}

// cp is the critical path of the window [lo, hi): the longest chain of
// graph edges whose events all lie in the window. An edge from a
// producer before lo is cut — inside the window that read sees no
// writer at all, since any later writer would be the last one.
func (g rawGraph) cp(lo, hi int) int {
	depth := make([]int, hi-lo)
	longest := 0
	for j := lo; j < hi; j++ {
		d := 0
		for _, p := range g.preds[j] {
			if p >= lo && depth[p-lo] > d {
				d = depth[p-lo]
			}
		}
		depth[j-lo] = d + 1
		longest = max(longest, d+1)
	}
	return longest
}

// oracleWindows is the oracle's account of one window size.
type oracleWindows struct {
	cps            []int // critical path of every window, in stream order
	sumCP, sumLen  int
	meanCP, meanIL float64
}

// windows cuts the windows of size w at stride st over a stream of n
// events: every complete window [k*st, k*st+w), then — when events
// remain past the last complete window — one window snapped to the end
// of the stream (the whole stream when it is shorter than w).
func (g rawGraph) windows(w, st int) oracleWindows {
	n := len(g.preds)
	var ow oracleWindows
	cut := func(lo, hi int) {
		c := g.cp(lo, hi)
		ow.cps = append(ow.cps, c)
		ow.sumCP += c
		ow.sumLen += hi - lo
	}
	end := 0
	for lo := 0; lo+w <= n; lo += st {
		cut(lo, lo+w)
		end = lo + w
	}
	switch {
	case n == 0:
	case n < w:
		cut(0, n)
	case end < n:
		cut(n-w, n)
	}
	if k := len(ow.cps); k > 0 {
		ow.meanCP = float64(ow.sumCP) / float64(k)
		if ow.meanCP > 0 {
			ow.meanIL = float64(ow.sumLen) / float64(k) / ow.meanCP
		}
	}
	return ow
}

// oracleStride resolves a constructor stride the way the Figure 2
// analysis defines it: 0 is half the window (at least 1), and a stride
// beyond the window is the window.
func oracleStride(w, stride int) int {
	st := stride
	if st == 0 {
		st = max(w/2, 1)
	}
	return min(st, w)
}

// oracleResults is the oracle's WindowResult for every size.
func oracleResults(g rawGraph, sizes []int, stride int) ([]WindowResult, []oracleWindows) {
	out := make([]WindowResult, len(sizes))
	all := make([]oracleWindows, len(sizes))
	for i, w := range sizes {
		ow := g.windows(w, oracleStride(w, stride))
		all[i] = ow
		out[i] = WindowResult{Size: w, Windows: uint64(len(ow.cps)), MeanCP: ow.meanCP, MeanILP: ow.meanIL}
	}
	return out, all
}

// foldWindowed is the windowed analysis with every window folded from
// scratch, whatever the configuration.
func foldWindowed(sizes []int, stride int) *WindowedCritPath {
	w := NewWindowedCritPathStride(sizes, stride)
	w.hb = nil
	return w
}

// windowedVariants runs evs through the sequential analysis as
// constructed (the single-pass tracker where it applies), the forced
// fold and, when shards > 0, the sharded analysis.
func windowedVariants(evs []isa.Event, sizes []int, stride, shards int) map[string][]WindowResult {
	seq := NewWindowedCritPathStride(sizes, stride)
	fold := foldWindowed(sizes, stride)
	out := map[string][]WindowResult{}
	var sh *ShardedWindowedCP
	if shards > 0 {
		sh = NewShardedWindowedCP(sizes, stride, shards)
	}
	for i := range evs {
		seq.Event(&evs[i])
		fold.Event(&evs[i])
		if sh != nil {
			sh.Event(&evs[i])
		}
	}
	out["sequential"], out["fold"] = seq.Results(), fold.Results()
	if sh != nil {
		out["sharded"] = sh.Results()
	}
	return out
}

// checkAgainstOracle compares every variant with the oracle and runs
// the metamorphic checks: no window's CP exceeds its size or the whole
// stream's CP, and one window spanning the stream is the whole CP.
func checkAgainstOracle(t *testing.T, label string, evs []isa.Event, arch isa.Arch, sizes []int, stride, shards int) {
	t.Helper()
	g := buildRAWGraph(evs, arch)
	want, per := oracleResults(g, sizes, stride)
	for name, got := range windowedVariants(evs, sizes, stride, shards) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: sizes %v stride %d: %s size %d = %+v, oracle %+v",
					label, sizes, stride, name, sizes[i], got[i], want[i])
			}
		}
	}
	whole := g.cp(0, len(evs))
	for i, ow := range per {
		for k, c := range ow.cps {
			if c > min(sizes[i], whole) {
				t.Fatalf("%s: size %d window %d: CP %d above min(size, whole-trace CP %d)",
					label, sizes[i], k, c, whole)
			}
		}
	}
	if len(evs) == 0 {
		return
	}
	// Padded with one independent event to an even length, the stream
	// is exactly one window of its own length. That window closes with
	// the stream's second half-block, so up to maxHalfBlockWindow events
	// the single-pass tracker reports it itself, not the tail fold.
	padded := evs
	if len(evs)%2 != 0 {
		padded = append(evs[:len(evs):len(evs)], isa.Event{})
	}
	span := len(padded)
	for name, got := range windowedVariants(padded, []int{span}, 0, 0) {
		if r := got[0]; r.Windows != 1 || r.MeanCP != float64(whole) {
			t.Fatalf("%s: %s window of %d over %d events = %+v, want one window of CP %d",
				label, name, span, len(padded), r, whole)
		}
	}
	if span <= maxHalfBlockWindow {
		w := NewWindowedCritPathStride([]int{span}, 0)
		w.Events(padded)
		if w.hb == nil || w.results[0] != (windowAccum{sumCP: uint64(whole), sumLen: uint64(span), windows: 1}) {
			t.Fatalf("%s: single-pass tracker closed %+v over %d events, want one window of CP %d",
				label, w.results[0], span, whole)
		}
	}
}

// randOracleStream builds a stream rich in the dependence shapes the
// analysis must get right: register chains through a small register
// pool, multi-destination events, unaligned loads and stores spanning
// two words, 16-byte pair accesses and fused second loads, over a
// small address range so memory chains form.
func randOracleStream(r *rand.Rand, n int) []isa.Event {
	reg := func() isa.Reg { return isa.Reg(1 + r.Intn(10)) }
	addr := func() uint64 { return 0x1000 + uint64(r.Intn(48))*4 + uint64(r.Intn(4)) }
	sizes := []uint8{1, 2, 4, 8, 8, 16}
	evs := make([]isa.Event, n)
	for i := range evs {
		ev := &evs[i]
		for s := r.Intn(4); s > 0; s-- {
			ev.AddSrc(reg())
		}
		for d := r.Intn(3); d > 0; d-- {
			ev.AddDst(reg())
		}
		switch r.Intn(6) {
		case 0, 1:
			ev.LoadAddr, ev.LoadSize = addr(), sizes[r.Intn(len(sizes))]
			if r.Intn(4) == 0 {
				ev.Load2Addr, ev.Load2Size = addr(), sizes[r.Intn(len(sizes))]
			}
		case 2:
			ev.StoreAddr, ev.StoreSize = addr(), sizes[r.Intn(len(sizes))]
		}
	}
	return evs
}

// randPagedStream spreads memory traffic over many 32 KiB regions (one
// page of the tracker's writer table each): stores move to a new
// region every few hundred events and loads read the regions stored to
// recently, so consecutive accesses keep switching pages, and regions
// are revisited after their last writers have left every window.
// Loads have no register sources and stores take their value from a
// load's destination, so every chain runs through memory.
func randPagedStream(r *rand.Rand, n int) []isa.Event {
	const regions, dwell = 24, 600
	word := func(region int) uint64 {
		return 0x100000 + uint64(region%regions)*0x8000 + uint64(r.Intn(64))*8
	}
	evs := make([]isa.Event, n)
	for i := range evs {
		ev := &evs[i]
		active := i / dwell
		if r.Intn(2) == 0 {
			ev.AddDst(isa.Reg(1 + r.Intn(2)))
			ev.LoadAddr, ev.LoadSize = word(active+regions-r.Intn(4)), 8
		} else {
			ev.AddSrc(isa.Reg(1 + r.Intn(2)))
			ev.StoreAddr, ev.StoreSize = word(active), 8
		}
	}
	return evs
}

// TestWindowedCPOracle checks the single-pass tracker, the forced fold
// and the sharded analysis against the oracle on random streams whose
// lengths straddle half-block, window, ring (2048) and tail boundaries,
// for size sets the tracker takes (the paper's, {4}, {2, 6}, eight
// sizes) and ones it leaves to the fold (an odd size, strides other
// than W/2), and on streams whose memory traffic moves across many
// pages of the tracker's writer table.
func TestWindowedCPOracle(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 999, 1000, 1001, 1999, 2000, 2001, 2047, 2048, 2049, 3001, 4097, 5000}
	configs := []struct {
		sizes  []int
		stride int
	}{
		{PaperWindowSizes(), 0},
		{[]int{4}, 0},
		{[]int{2, 6}, 0},
		{[]int{2, 4, 6, 8, 10, 12, 14, 16}, 0},
		{[]int{8, 200}, 0},
		{[]int{5}, 0},                 // odd: fold
		{[]int{4, 16, 64}, 3},         // stride != W/2: fold
		{[]int{16}, 8},                // explicit W/2: single pass
		{PaperWindowSizes(), 1 << 10}, // clamped explicit stride: fold
	}
	r := rand.New(rand.NewSource(17))
	for _, n := range lengths {
		evs := randOracleStream(r, n)
		for _, c := range configs {
			checkAgainstOracle(t, fmt.Sprintf("random n=%d", n), evs, isa.RV64, c.sizes, c.stride, 2)
		}
	}
	// Streams whose stores move across many pages of the writer table.
	for seed := int64(0); seed < 3; seed++ {
		evs := randPagedStream(rand.New(rand.NewSource(seed)), 35000)
		checkAgainstOracle(t, fmt.Sprintf("paged seed=%d", seed), evs, isa.RV64, PaperWindowSizes(), 0, 2)
	}
}

// TestWindowedCPOracleTracked pins which configurations take the
// single-pass tracker, so the oracle comparisons above exercise both
// algorithms.
func TestWindowedCPOracleTracked(t *testing.T) {
	for _, c := range []struct {
		sizes  []int
		stride int
		want   bool
	}{
		{PaperWindowSizes(), 0, true},
		{[]int{2, 6}, 0, true},
		{[]int{16}, 8, true},
		{[]int{65534}, 0, true},
		{[]int{2, 4, 6, 8, 10, 12, 14, 16}, 0, true},
		{[]int{2, 4, 6, 8, 10, 12, 14, 16, 18}, 0, false},
		{[]int{5}, 0, false},
		{[]int{65536}, 0, false},
		{[]int{4, 0}, 0, false},
		{[]int{4, 16}, 2, false},
	} {
		if got := NewWindowedCritPathStride(c.sizes, c.stride).SinglePass(); got != c.want {
			t.Errorf("sizes %v stride %d: single pass = %v, want %v", c.sizes, c.stride, got, c.want)
		}
	}
}

// FuzzWindowedCP decodes arbitrary bytes into an event stream and a
// size set and checks the single-pass tracker and the forced fold
// against the oracle. The first byte picks the sizes and stride; each
// following group of four bytes is one event.
func FuzzWindowedCP(f *testing.F) {
	f.Add([]byte{0, 0x15, 0x21, 0x03, 0x44, 0x35, 0x12, 0x07, 0x80})
	f.Add([]byte{3, 0xff, 0xff, 0xff, 0xff, 0x10, 0x01, 0x02, 0x03, 0x3d, 0x12, 0x34, 0x56})
	f.Add(make([]byte, 1+4*40))
	configs := []struct {
		sizes  []int
		stride int
	}{
		{[]int{4}, 0},
		{[]int{2, 6}, 0},
		{[]int{4, 16, 64}, 0},
		{[]int{2, 4, 6, 8, 10, 12, 14, 16}, 0},
		{[]int{8, 200}, 0},
		{PaperWindowSizes(), 0},
		{[]int{5, 3}, 0},
		{[]int{4, 16}, 1},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c := configs[int(data[0])%len(configs)]
		evs := decodeFuzzStream(data[1:])
		g := buildRAWGraph(evs, isa.RV64)
		want, _ := oracleResults(g, c.sizes, c.stride)
		for name, got := range windowedVariants(evs, c.sizes, c.stride, 0) {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("sizes %v stride %d, %d events: %s size %d = %+v, oracle %+v",
						c.sizes, c.stride, len(evs), name, c.sizes[i], got[i], want[i])
				}
			}
		}
	})
}

// decodeFuzzStream turns each four bytes into one event. Byte 0 holds
// the source count (bits 0-1), the destination count (bits 2-3) and
// load, store and second-load flags (bits 4-6); byte 1 names registers
// from a pool of eight non-zero ones; byte 2 picks a word and byte 3
// an unaligned offset and access size, so accesses overlap and span
// words.
func decodeFuzzStream(b []byte) []isa.Event {
	sizes := [4]uint8{1, 4, 8, 16}
	evs := make([]isa.Event, 0, len(b)/4)
	for ; len(b) >= 4; b = b[4:] {
		var ev isa.Event
		regs := uint32(b[1])<<8 | uint32(b[2])
		for s := b[0] & 3; s > 0; s-- {
			ev.AddSrc(isa.Reg(1 + regs&7))
			regs >>= 3
		}
		for d := (b[0] >> 2) & 3; d > 0 && d < 3; d-- {
			ev.AddDst(isa.Reg(1 + regs&7))
			regs >>= 3
		}
		addr := 0x2000 + uint64(b[2]&15)*8 + uint64(b[3]&7)
		size := sizes[(b[3]>>3)&3]
		if b[0]&0x10 != 0 {
			ev.LoadAddr, ev.LoadSize = addr, size
		}
		if b[0]&0x20 != 0 {
			ev.StoreAddr, ev.StoreSize = addr+8*uint64(b[3]>>5), size
		}
		if b[0]&0x40 != 0 {
			ev.Load2Addr, ev.Load2Size = addr+8, sizes[b[3]>>6]
		}
		evs = append(evs, ev)
	}
	return evs
}
