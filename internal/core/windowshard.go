package core

import (
	"runtime"
	"sync"

	"isacmp/internal/isa"
)

// shardChunk is the number of window-start positions one shard job
// covers. Each job carries a private copy of the events its windows
// can reach (shardChunk + max window size), so the constant trades
// per-job copy overhead against scheduling granularity.
const shardChunk = 8192

// ShardedWindowedCP computes exactly the same Figure 2 aggregates as
// WindowedCritPath, but concurrently: windows at different start
// positions are independent (paper section 6), so the stream is split
// into chunks of consecutive window starts and each chunk is evaluated
// by a shard worker that folds each window from scratch with its own
// dependence scratch. Per-size sums and window counts are integers, so
// merging shard results is exact and independent of completion order.
// At the paper's stride the sequential implementation uses the
// single-pass tracker instead, so the two are different algorithms
// held to bit-identical results by tests (against each other and
// against an explicit dependence-graph oracle) and by the -parallel
// determinism contract in the README.
//
// Event must be called from a single goroutine. Results flushes the
// final chunk and the partial tail window, waits for every shard, and
// is idempotent; Event must not be called after Results.
type ShardedWindowedCP struct {
	sizes   []int
	strides []uint64
	maxSize uint64

	buf  []wev  // events [base, pos)
	base uint64 // absolute index of buf[0]
	pos  uint64 // total events seen

	jobs chan windowJob
	wg   sync.WaitGroup

	mu  sync.Mutex
	acc []windowAccum

	done    bool
	results []WindowResult
}

// windowJob asks a shard to evaluate, for every size, the complete
// windows whose start index lies in [lo, hi) and whose events are
// fully contained in the carried slice.
type windowJob struct {
	events []wev  // events [base, base+len(events))
	base   uint64 // absolute index of events[0]
	lo, hi uint64 // absolute window-start range
}

// NewShardedWindowedCP builds a concurrent windowed-CP analysis over
// the given sizes and stride (0 selects the paper's size/2), fanned
// out over `shards` worker goroutines (<=0 selects GOMAXPROCS).
func NewShardedWindowedCP(sizes []int, stride, shards int) *ShardedWindowedCP {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	maxSize := 1
	for _, s := range sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	w := &ShardedWindowedCP{
		sizes:   append([]int(nil), sizes...),
		strides: windowStrides(sizes, stride),
		maxSize: uint64(maxSize),
		buf:     make([]wev, 0, shardChunk+maxSize),
		jobs:    make(chan windowJob, 2*shards),
		acc:     make([]windowAccum, len(sizes)),
	}
	for i := 0; i < shards; i++ {
		go w.shard()
	}
	return w
}

// shard drains jobs, folding windows with a private scratch and
// merging integer sums into the shared accumulators.
func (w *ShardedWindowedCP) shard() {
	scratch := newCPScratch()
	for job := range w.jobs {
		local := make([]windowAccum, len(w.sizes))
		for i, size := range w.sizes {
			if size <= 0 {
				continue
			}
			s, st := uint64(size), w.strides[i]
			avail := job.base + uint64(len(job.events))
			// First window start in [lo, hi) that is a multiple of the
			// stride.
			k := (job.lo + st - 1) / st * st
			for ; k < job.hi && k+s <= avail; k += st {
				ev := job.events[k-job.base : k-job.base+s]
				scratch.reset()
				var maxCP uint64
				for j := range ev {
					if v := scratch.step(&ev[j]); v > maxCP {
						maxCP = v
					}
				}
				local[i].add(windowAccum{sumCP: maxCP, sumLen: s, windows: 1})
			}
		}
		w.mu.Lock()
		for i := range local {
			w.acc[i].add(local[i])
		}
		w.mu.Unlock()
		w.wg.Done()
	}
}

// Events buffers a whole batch of instructions — the isa.BatchSink
// fast path.
func (w *ShardedWindowedCP) Events(evs []isa.Event) {
	for i := range evs {
		w.Event(&evs[i])
	}
}

// Event buffers one instruction and dispatches a chunk of window
// starts to the shards once every window starting in it is complete.
func (w *ShardedWindowedCP) Event(ev *isa.Event) {
	var slot wev
	slot.fill(ev)
	w.buf = append(w.buf, slot)
	w.pos++

	// Windows starting in [base, base+shardChunk) reach at most event
	// base+shardChunk+maxSize-2, so once the buffer holds
	// shardChunk+maxSize events the whole chunk is evaluable.
	if w.pos-w.base == shardChunk+w.maxSize {
		w.wg.Add(1)
		w.jobs <- windowJob{events: w.buf, base: w.base, lo: w.base, hi: w.base + shardChunk}
		next := make([]wev, w.maxSize, shardChunk+w.maxSize)
		copy(next, w.buf[shardChunk:])
		w.base += shardChunk
		w.buf = next
	}
}

// Results flushes the remaining windows, waits for every shard and
// returns the aggregates, bit-identical to the sequential
// WindowedCritPath over the same stream. Subsequent calls return the
// cached slice.
func (w *ShardedWindowedCP) Results() []WindowResult {
	if w.done {
		return w.results
	}
	if w.pos > w.base {
		// Remaining complete windows: starts in [base, pos); the job
		// bound k+s <= base+len(events) == pos keeps partial ones out.
		w.wg.Add(1)
		w.jobs <- windowJob{events: w.buf, base: w.base, lo: w.base, hi: w.pos}
	}
	close(w.jobs)
	w.wg.Wait()

	w.results = make([]WindowResult, len(w.sizes))
	for i, size := range w.sizes {
		acc := w.acc[i]
		if size > 0 {
			if lo, hi, ok := tailSpan(w.pos, uint64(size), w.strides[i]); ok {
				acc.add(windowAccum{sumCP: w.tailCP(lo, hi), sumLen: hi - lo, windows: 1})
			}
		}
		w.results[i] = finishWindowResult(size, acc)
	}
	w.done = true
	return w.results
}

// tailCP computes the critical path of the absolute event range
// [lo, hi), which is always still resident in the carry buffer (the
// buffer keeps the last maxSize events and lo >= pos - maxSize).
func (w *ShardedWindowedCP) tailCP(lo, hi uint64) uint64 {
	scratch := newCPScratch()
	var maxCP uint64
	for k := lo; k < hi; k++ {
		if v := scratch.step(&w.buf[k-w.base]); v > maxCP {
			maxCP = v
		}
	}
	return maxCP
}
