// Package sched is the parallel analysis engine's worker pool: a
// fixed-size pool that spreads the full analysis matrix (workload x
// ISA x compiler x analysis cells) over GOMAXPROCS workers. Each cell
// is simulated exactly once and delivered to its analyses in order on
// the worker that runs it.
//
// Determinism is the design constraint: tasks write their results into
// caller-owned slots, and all cross-shard merging elsewhere in the
// tree is integer-exact — so a parallel run produces byte-identical
// reports and (canonicalized) manifests to a sequential one. The pool
// exposes its behaviour through telemetry: a shared queue-depth gauge,
// per-worker depth gauges, a cell-latency histogram and per-worker
// utilization for the run manifest.
package sched

import (
	"fmt"
	"log/slog"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"isacmp/internal/telemetry"
)

// Pool is a fixed-size worker pool. Tasks run in FIFO submission order
// across the workers; with one worker execution is strictly
// sequential, which is what `-parallel 1` means everywhere.
type Pool struct {
	workers int
	tasks   chan func(worker int)
	wg      sync.WaitGroup // open tasks
	stopped sync.WaitGroup // worker goroutines
	start   time.Time

	// Log, when set, receives pool lifecycle lines (start, drain,
	// escaped panics). Set it after NewPool and before the first Go —
	// the task-channel handoff orders the write before any worker
	// reads it.
	Log *slog.Logger

	queued atomic.Int64

	// telemetry (nil registry leaves them nil)
	queueDepth  *telemetry.Gauge
	workerDepth []*telemetry.Gauge
	cellSecs    *telemetry.Histogram
	cellsTotal  *telemetry.Counter

	busyNs    []atomic.Int64
	blockedNs []atomic.Int64 // time spent waiting on the task queue
	cells     []atomic.Int64

	// panic backstop: tasks are expected to run under their own
	// simeng.Guard, but a panic that escapes one anyway must not take
	// the whole pool (and every other matrix cell) down with it.
	panics     atomic.Int64
	firstPanic atomic.Value // string
}

// DefaultWorkers resolves a worker-count knob: n > 0 is taken as
// given, anything else selects GOMAXPROCS.
func DefaultWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// NewPool starts a pool with the given number of workers (<=0 selects
// GOMAXPROCS). When reg is non-nil the pool registers its gauges
// ("sched.queue.depth", "sched.worker.<i>.depth"), the
// "sched.cell.seconds" latency histogram and the "sched.cells.total"
// counter there; all sched.* metrics are stripped by manifest
// canonicalization, so they never break run-to-run determinism.
func NewPool(workers int, reg *telemetry.Registry) *Pool {
	workers = DefaultWorkers(workers)
	p := &Pool{
		workers:   workers,
		tasks:     make(chan func(worker int), 4*workers+64),
		start:     time.Now(),
		busyNs:    make([]atomic.Int64, workers),
		blockedNs: make([]atomic.Int64, workers),
		cells:     make([]atomic.Int64, workers),
	}
	if reg != nil {
		p.queueDepth = reg.Gauge("sched.queue.depth")
		p.cellSecs = reg.Histogram("sched.cell.seconds",
			[]float64{0.001, 0.01, 0.1, 1, 10, 60})
		p.cellsTotal = reg.Counter("sched.cells.total")
		p.workerDepth = make([]*telemetry.Gauge, workers)
		for i := range p.workerDepth {
			p.workerDepth[i] = reg.Gauge("sched.worker." + strconv.Itoa(i) + ".depth")
		}
	}
	p.stopped.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker(i)
	}
	return p
}

func (p *Pool) worker(id int) {
	defer p.stopped.Done()
	for {
		// Time spent parked on the queue is the occupancy model's
		// "blocked" bucket — queue starvation, as opposed to idle ramp
		// up/down. One clock pair per task, amortized over a whole
		// matrix cell.
		waitStart := time.Now()
		task, ok := <-p.tasks
		p.blockedNs[id].Add(int64(time.Since(waitStart)))
		if !ok {
			return
		}
		d := p.queued.Add(-1)
		if p.queueDepth != nil {
			p.queueDepth.Set(float64(d))
			p.workerDepth[id].Set(1)
		}
		start := time.Now()
		p.runTask(task, id)
		busy := time.Since(start)
		p.busyNs[id].Add(int64(busy))
		p.cells[id].Add(1)
		if p.queueDepth != nil {
			p.workerDepth[id].Set(0)
			p.cellSecs.Observe(busy.Seconds())
			p.cellsTotal.Inc()
		}
		p.wg.Done()
	}
}

// runTask executes one task with the panic backstop: a panic is
// recorded and swallowed so the worker, the pool's task accounting
// and every other cell survive. Wait/Close cannot deadlock on a
// panicked task because the wg.Done in the worker loop still runs.
func (p *Pool) runTask(task func(worker int), id int) {
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
			p.firstPanic.CompareAndSwap(nil, fmt.Sprint(r))
			if p.Log != nil {
				p.Log.Error("sched: task panicked past its guard", "panic", fmt.Sprint(r))
			}
		}
	}()
	task(id)
}

// Panics reports how many tasks panicked past their own guards, and
// the first recovered panic value. Callers surface a non-zero count
// as a run failure after Wait/Close.
func (p *Pool) Panics() (int64, string) {
	first, _ := p.firstPanic.Load().(string)
	return p.panics.Load(), first
}

// Go submits one task (a matrix cell). It blocks only when the queue
// buffer is full.
func (p *Pool) Go(task func()) {
	p.GoW(func(int) { task() })
}

// GoW submits one task that receives the id of the worker it runs on
// (0 ≤ id < Workers) — the span profiler's lane index. It blocks only
// when the queue buffer is full.
func (p *Pool) GoW(task func(worker int)) {
	p.wg.Add(1)
	d := p.queued.Add(1)
	if p.queueDepth != nil {
		p.queueDepth.Set(float64(d))
	}
	p.tasks <- task
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Wait blocks until every task submitted so far has completed.
func (p *Pool) Wait() { p.wg.Wait() }

// Close waits for outstanding tasks and stops the workers. The pool
// cannot be reused afterwards.
func (p *Pool) Close() {
	p.wg.Wait()
	close(p.tasks)
	p.stopped.Wait()
	if p.Log != nil {
		st := p.Stats()
		p.Log.Debug("sched: pool drained",
			"workers", st.Workers, "cells", st.Cells,
			"wall_seconds", st.WallSeconds, "busy_seconds", st.BusySeconds)
	}
}

// Stats summarises the pool's execution for the run manifest:
// per-worker utilization (busy time over pool lifetime) and cell
// counts. Call after Wait.
func (p *Pool) Stats() telemetry.SchedStats {
	wall := time.Since(p.start).Seconds()
	st := telemetry.SchedStats{
		Workers:     p.workers,
		WallSeconds: wall,
	}
	for i := 0; i < p.workers; i++ {
		busy := float64(p.busyNs[i].Load()) / 1e9
		blocked := float64(p.blockedNs[i].Load()) / 1e9
		util, wait := 0.0, 0.0
		if wall > 0 {
			util = busy / wall
			wait = blocked / wall
		}
		st.WorkerUtilization = append(st.WorkerUtilization, util)
		st.WorkerCells = append(st.WorkerCells, p.cells[i].Load())
		st.WorkerBlocked = append(st.WorkerBlocked, wait)
		st.Cells += int(p.cells[i].Load())
		st.BusySeconds += busy
		st.BlockedSeconds += blocked
	}
	return st
}
