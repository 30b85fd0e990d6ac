package sched

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolDrainsOnCancel models the fail-fast shutdown path: the first
// failing cell cancels a shared context and every remaining cell must
// still be dispatched (observing the cancel and returning early) so
// Close never deadlocks on abandoned tasks.
//
// Tasks after index 3 wait until task 3 has cancelled, so the
// cancellation is always observed: the queue is FIFO, so task 3 is
// dequeued before any waiting task and never queues behind one.
func TestPoolDrainsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := NewPool(4, nil)
	const n = 64
	var ran, cancelled atomic.Int64
	failed := make(chan struct{})
	for i := 0; i < n; i++ {
		i := i
		p.Go(func() {
			if i > 3 {
				<-failed
			}
			if ctx.Err() != nil {
				cancelled.Add(1)
				return
			}
			ran.Add(1)
			if i == 3 {
				cancel() // the "first failure"
				close(failed)
			}
		})
	}
	done := make(chan struct{})
	go func() { p.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not drain after cancel")
	}
	if got := ran.Load() + cancelled.Load(); got != n {
		t.Fatalf("dispatched %d of %d tasks", got, n)
	}
	if cancelled.Load() == 0 {
		t.Fatal("no task observed the cancellation")
	}
}

// TestPoolContinuesPastErrors is the continue-on-error path: failing
// cells record their error and the rest of the matrix still runs.
func TestPoolContinuesPastErrors(t *testing.T) {
	p := NewPool(3, nil)
	const n = 30
	errs := make([]error, n)
	var ok atomic.Int64
	for i := 0; i < n; i++ {
		i := i
		p.Go(func() {
			if i%5 == 0 {
				errs[i] = fmt.Errorf("cell %d failed", i)
				return
			}
			ok.Add(1)
		})
	}
	p.Close()
	var failed int
	for _, e := range errs {
		if e != nil {
			failed++
		}
	}
	if failed != n/5 || ok.Load() != int64(n-n/5) {
		t.Fatalf("failed=%d ok=%d, want %d/%d", failed, ok.Load(), n/5, n-n/5)
	}
}

// TestPoolPanicBackstopDrains: a panicking task must not take down its
// worker, stall Close, or suppress the remaining tasks.
func TestPoolPanicBackstopDrains(t *testing.T) {
	p := NewPool(2, nil)
	var ran atomic.Int64
	for i := 0; i < 20; i++ {
		i := i
		p.Go(func() {
			if i == 2 {
				panic("injected: worker down")
			}
			ran.Add(1)
		})
	}
	done := make(chan struct{})
	go func() { p.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung after a task panicked")
	}
	if ran.Load() != 19 {
		t.Fatalf("ran %d of 19 healthy tasks", ran.Load())
	}
	n, first := p.Panics()
	if n != 1 || !strings.Contains(first, "injected: worker down") {
		t.Fatalf("Panics() = %d, %q", n, first)
	}
}

// TestPoolNoGoroutineLeak closes pools across both clean and
// cancelled shutdowns and checks the goroutine count returns to its
// baseline.
func TestPoolNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		p := NewPool(8, nil)
		for i := 0; i < 40; i++ {
			i := i
			p.Go(func() {
				if ctx.Err() != nil {
					return
				}
				if i == 10 {
					cancel()
				}
			})
		}
		p.Close()
		cancel()
	}
	// Worker goroutines exit asynchronously after Close returns from
	// stopped.Wait, but other runtime goroutines may still be winding
	// down; poll briefly before declaring a leak.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after pool shutdowns", before, after)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
