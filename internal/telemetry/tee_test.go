package telemetry

import (
	"testing"

	"isacmp/internal/isa"
)

// TestTeeOrdering verifies the tee forwards every event to every sink
// in attachment order, on both the batched and unbatched paths.
func TestTeeOrdering(t *testing.T) {
	var order []int
	tee := NewTee()
	for i := 0; i < 3; i++ {
		i := i
		tee.Add("sink", isa.SinkFunc(func(ev *isa.Event) { order = append(order, i) }))
	}
	var ev isa.Event
	tee.Event(&ev)
	tee.Event(&ev)
	tee.Events(make([]isa.Event, 2))
	const events = 4
	if got := tee.Stats()[0].Events; got != events {
		t.Fatalf("events = %d, want %d", got, events)
	}
	if len(order) != events*3 {
		t.Fatalf("forwarded %d calls, want %d", len(order), events*3)
	}
	// The unbatched path interleaves sinks per event; the batched path
	// hands each sink the whole batch in turn.
	want := []int{0, 1, 2, 0, 1, 2, 0, 0, 1, 1, 2, 2}
	for i, got := range order {
		if got != want[i] {
			t.Fatalf("call %d went to sink %d, want %d (order %v)", i, got, want[i], order)
		}
	}
}

// TestTeeOverheadAccounting verifies that batched deliveries are timed
// event for event, unbatched ones are not, and that the overhead
// estimate extrapolates the timed cost to all events.
func TestTeeOverheadAccounting(t *testing.T) {
	tee := NewTee()
	busy := 0
	tee.Add("busy", isa.SinkFunc(func(ev *isa.Event) {
		for i := 0; i < 10000; i++ {
			busy += i
		}
	}))
	var ev isa.Event
	const batched, unbatched = 64, 16
	for i := 0; i < unbatched; i++ {
		tee.Event(&ev)
	}
	tee.Events(make([]isa.Event, batched))
	stats := tee.Stats()
	if len(stats) != 1 {
		t.Fatalf("stats len = %d", len(stats))
	}
	s := stats[0]
	if s.Name != "busy" || s.Events != batched+unbatched {
		t.Fatalf("stats = %+v", s)
	}
	if s.SampledEvents != batched {
		t.Fatalf("timed %d events, want the %d batched ones", s.SampledEvents, batched)
	}
	if s.SampledNs == 0 {
		t.Fatal("busy sink timed at 0ns")
	}
	if s.MeanNsPerEvent <= 0 {
		t.Fatalf("mean ns = %v", s.MeanNsPerEvent)
	}
	want := uint64(s.MeanNsPerEvent * float64(batched+unbatched))
	if s.EstOverheadNs != want {
		t.Fatalf("est overhead = %d, want %d", s.EstOverheadNs, want)
	}
	_ = busy
}

// TestTeeInlineRunMetrics covers the inline counting path the cell
// runner uses: the tee feeds RunMetrics without a per-event sink
// dispatch, on both delivery paths.
func TestTeeInlineRunMetrics(t *testing.T) {
	m := NewCellMetrics()
	tee := NewTee().CountRunMetrics(m)
	tee.Add("null", isa.SinkFunc(func(ev *isa.Event) {}))
	branch := isa.Event{Branch: true, Taken: true}
	load := isa.Event{LoadSize: 8}
	for i := 0; i < 10; i++ {
		tee.Event(&branch)
		tee.Event(&load)
	}
	tee.Events([]isa.Event{branch, load, {StoreSize: 4}})
	got := m.Counters()
	if got["run.retired"] != 23 || got["run.branches"] != 11 ||
		got["run.branches_taken"] != 11 || got["run.loads"] != 11 || got["run.stores"] != 1 {
		t.Fatalf("counters = %v", got)
	}
}

// TestRunMetricsFlush: a cell's counter map is complete as soon as
// the events are counted (there is no flush cadence left to wait
// for), and reading it is idempotent.
func TestRunMetricsFlush(t *testing.T) {
	m := NewCellMetrics()
	tee := NewTee().CountRunMetrics(m)
	ev := isa.Event{Branch: true, Taken: true, LoadSize: 8}
	for i := 0; i < 100; i++ {
		tee.Event(&ev)
	}
	want := map[string]uint64{
		"run.retired": 100, "run.branches": 100, "run.branches_taken": 100,
		"run.loads": 100, "run.stores": 0,
	}
	for pass := 0; pass < 2; pass++ {
		got := m.Counters()
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("pass %d: %s = %d, want %d (%v)", pass, k, got[k], v, got)
			}
		}
	}
	// Applied to a registry, the delta lands exactly once.
	r := NewRegistry()
	ApplyCounters(r, m.Counters())
	if s := r.Snapshot(); s.Counter("run.retired") != 100 {
		t.Fatalf("applied retired = %d, want 100", s.Counter("run.retired"))
	}
}
