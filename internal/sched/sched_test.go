package sched

import (
	"sync/atomic"
	"testing"
	"time"

	"isacmp/internal/telemetry"
)

func TestPoolRunsEveryTask(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(workers, nil)
		var n atomic.Int64
		const tasks = 100
		for i := 0; i < tasks; i++ {
			p.Go(func() { n.Add(1) })
		}
		p.Close()
		if n.Load() != tasks {
			t.Fatalf("workers=%d: ran %d tasks, want %d", workers, n.Load(), tasks)
		}
	}
}

// TestPoolSingleWorkerSequential: with one worker, tasks run strictly
// in submission order — the property `-parallel 1` relies on.
func TestPoolSingleWorkerSequential(t *testing.T) {
	p := NewPool(1, nil)
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		p.Go(func() { order = append(order, i) })
	}
	p.Close()
	for i, got := range order {
		if got != i {
			t.Fatalf("task %d ran at position %d", got, i)
		}
	}
}

func TestPoolWait(t *testing.T) {
	p := NewPool(3, nil)
	var n atomic.Int64
	for i := 0; i < 10; i++ {
		p.Go(func() { n.Add(1) })
	}
	p.Wait()
	if n.Load() != 10 {
		t.Fatalf("after Wait: %d tasks done, want 10", n.Load())
	}
	// The pool is still usable after Wait.
	p.Go(func() { n.Add(1) })
	p.Close()
	if n.Load() != 11 {
		t.Fatalf("after Close: %d tasks done, want 11", n.Load())
	}
}

func TestPoolStats(t *testing.T) {
	p := NewPool(2, nil)
	for i := 0; i < 20; i++ {
		p.Go(func() {})
	}
	p.Close()
	st := p.Stats()
	if st.Workers != 2 {
		t.Fatalf("workers = %d, want 2", st.Workers)
	}
	if st.Cells != 20 {
		t.Fatalf("cells = %d, want 20", st.Cells)
	}
	if len(st.WorkerUtilization) != 2 || len(st.WorkerCells) != 2 {
		t.Fatalf("per-worker slices: %+v", st)
	}
	var total int64
	for _, c := range st.WorkerCells {
		total += c
	}
	if total != 20 {
		t.Fatalf("worker cells sum to %d, want 20", total)
	}
}

func TestPoolTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPool(2, reg)
	for i := 0; i < 5; i++ {
		p.Go(func() {})
	}
	p.Close()
	snap := reg.Snapshot()
	var cells uint64
	for _, c := range snap.Counters {
		if c.Name == "sched.cells.total" {
			cells = c.Value
		}
	}
	if cells != 5 {
		t.Fatalf("sched.cells.total = %d, want 5", cells)
	}
	var foundHist, foundGauge bool
	for _, h := range snap.Histograms {
		if h.Name == "sched.cell.seconds" && h.Count == 5 {
			foundHist = true
		}
	}
	for _, g := range snap.Gauges {
		if g.Name == "sched.worker.1.depth" {
			foundGauge = true
		}
	}
	if !foundHist || !foundGauge {
		t.Fatalf("missing sched metrics: hist=%v gauge=%v", foundHist, foundGauge)
	}
}

func TestDefaultWorkers(t *testing.T) {
	if DefaultWorkers(3) != 3 {
		t.Fatal("explicit count not honoured")
	}
	if DefaultWorkers(0) < 1 || DefaultWorkers(-1) < 1 {
		t.Fatal("default must be at least one worker")
	}
}

// TestPoolGoWReportsWorkerLane: every task receives a valid worker id
// and, with one worker, always lane 0 — the span profiler's lane
// contract.
func TestPoolGoWReportsWorkerLane(t *testing.T) {
	for _, workers := range []int{1, 3} {
		p := NewPool(workers, nil)
		if p.Workers() != workers {
			t.Fatalf("Workers() = %d, want %d", p.Workers(), workers)
		}
		lanes := make([]atomic.Int64, workers)
		var bad atomic.Int64
		const tasks = 60
		for i := 0; i < tasks; i++ {
			p.GoW(func(worker int) {
				if worker < 0 || worker >= workers {
					bad.Add(1)
					return
				}
				lanes[worker].Add(1)
			})
		}
		p.Close()
		if bad.Load() != 0 {
			t.Fatalf("workers=%d: %d tasks saw an out-of-range lane", workers, bad.Load())
		}
		var total int64
		for i := range lanes {
			total += lanes[i].Load()
		}
		if total != tasks {
			t.Fatalf("workers=%d: lanes account for %d tasks, want %d", workers, total, tasks)
		}
	}
}

// TestPoolStatsBlocked: a starved pool reports queue-wait time both in
// aggregate and per worker.
func TestPoolStatsBlocked(t *testing.T) {
	p := NewPool(2, nil)
	p.Go(func() { time.Sleep(20 * time.Millisecond) })
	p.Close()
	st := p.Stats()
	if len(st.WorkerBlocked) != 2 {
		t.Fatalf("WorkerBlocked rows = %d, want 2", len(st.WorkerBlocked))
	}
	// One worker ran the only task; the other spent the pool lifetime
	// parked on the queue, so blocked time must be visible.
	if st.BlockedSeconds <= 0 {
		t.Fatalf("BlockedSeconds = %v, want > 0 for a starved pool", st.BlockedSeconds)
	}
	maxBlocked := 0.0
	for _, b := range st.WorkerBlocked {
		if b > maxBlocked {
			maxBlocked = b
		}
	}
	if maxBlocked < 0.5 {
		t.Fatalf("max worker blocked fraction = %v, want the starved worker near 1", maxBlocked)
	}
}
