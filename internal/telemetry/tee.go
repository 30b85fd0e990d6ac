package telemetry

import (
	"time"

	"isacmp/internal/isa"
)

// Tee fans the per-retired-instruction event stream out to several
// sinks in order, like isa.MultiSink, while accounting what each sink
// costs. Every batch delivery (Events, the path every batched core
// takes) is timed with one clock pair per sink, so the accounting
// covers the whole stream at a few nanoseconds per 4096-event batch.
// The unbatched Event path forwards untimed: a clock pair per event
// would cost more than the cheap sinks it measures.
type Tee struct {
	sinks []isa.Sink
	names []string
	n     uint64
	// timed per-sink accounting, parallel to sinks.
	timedNs     []uint64
	timedEvents []uint64
	// rm, when non-nil, is fed inline — see CountRunMetrics.
	rm *RunMetrics
}

// clockNs estimates the cost of one start/stop timer pair, measured
// once at package init and subtracted from every sample so the
// reported per-sink cost is the sink's own work, not the clock's.
var clockNs = func() uint64 {
	const n = 256
	start := time.Now()
	for i := 0; i < n; i++ {
		_ = time.Since(time.Now())
	}
	return uint64(time.Since(start)) / n
}()

// NewTee builds an empty instrumented tee. Attach sinks with Add.
func NewTee() *Tee { return &Tee{} }

// Add attaches a named sink; events are forwarded in attachment order.
// It returns the tee for chaining.
func (t *Tee) Add(name string, s isa.Sink) *Tee {
	t.sinks = append(t.sinks, s)
	t.names = append(t.names, name)
	t.timedNs = append(t.timedNs, 0)
	t.timedEvents = append(t.timedEvents, 0)
	return t
}

// Event forwards ev to every attached sink in order, untimed.
func (t *Tee) Event(ev *isa.Event) {
	t.n++
	if m := t.rm; m != nil {
		m.count(ev)
	}
	for _, s := range t.sinks {
		s.Event(ev)
	}
}

// Events forwards a whole batch to every attached sink in order —
// the isa.BatchSink fast path — timing each sink's delivery.
func (t *Tee) Events(evs []isa.Event) {
	if len(evs) == 0 {
		return
	}
	t.n += uint64(len(evs))
	if m := t.rm; m != nil {
		for i := range evs {
			m.count(&evs[i])
		}
	}
	for i, s := range t.sinks {
		start := time.Now()
		isa.DeliverBatch(s, evs)
		ns := uint64(time.Since(start))
		if ns > clockNs {
			ns -= clockNs
		} else {
			ns = 0
		}
		t.timedNs[i] += ns
		t.timedEvents[i] += uint64(len(evs))
	}
}

// CountRunMetrics feeds m inline as events pass through the tee,
// instead of attaching it as a separate sink: the per-event counting
// happens inside the tee with no extra dynamic dispatch, which is what
// keeps whole-run instrumentation inside the observability budget. It
// returns the tee for chaining.
func (t *Tee) CountRunMetrics(m *RunMetrics) *Tee {
	t.rm = m
	return t
}

// SinkStats reports the cost accounting for one attached sink.
type SinkStats struct {
	// Name is the label the sink was attached with.
	Name string `json:"name"`
	// Events is the number of events forwarded to the sink.
	Events uint64 `json:"events"`
	// SampledEvents is the number of events that were timed (those
	// delivered in batches).
	SampledEvents uint64 `json:"sampled_events"`
	// SampledNs is the measured time inside the sink across the
	// timed events.
	SampledNs uint64 `json:"sampled_ns"`
	// EstOverheadNs extrapolates SampledNs to all events.
	EstOverheadNs uint64 `json:"est_overhead_ns"`
	// MeanNsPerEvent is the mean timed cost of one event.
	MeanNsPerEvent float64 `json:"mean_ns_per_event"`
}

// Stats returns per-sink cost accounting in attachment order.
func (t *Tee) Stats() []SinkStats {
	out := make([]SinkStats, len(t.sinks))
	for i := range t.sinks {
		s := SinkStats{
			Name:          t.names[i],
			Events:        t.n,
			SampledEvents: t.timedEvents[i],
			SampledNs:     t.timedNs[i],
		}
		if s.SampledEvents > 0 {
			s.MeanNsPerEvent = float64(s.SampledNs) / float64(s.SampledEvents)
			s.EstOverheadNs = uint64(s.MeanNsPerEvent * float64(t.n))
		}
		out[i] = s
	}
	return out
}

// RunMetrics is the standard event-stream instrumentation of one cell:
// retired instructions, branches, taken branches, loads and stores,
// counted inline by the Tee (CountRunMetrics). It touches no registry;
// the counts are read back with Counters once the cell retires and
// applied (or journaled) as one atomic delta, so a failed or replayed
// attempt contributes exactly zero.
type RunMetrics struct {
	retired, branches, taken, loads, stores uint64
}

// NewCellMetrics returns an empty per-cell RunMetrics.
func NewCellMetrics() *RunMetrics { return &RunMetrics{} }

// count accumulates one retired instruction.
func (m *RunMetrics) count(ev *isa.Event) {
	m.retired++
	if ev.Branch {
		m.branches++
		if ev.Taken {
			m.taken++
		}
	}
	if ev.LoadSize != 0 {
		m.loads++
	}
	if ev.StoreSize != 0 {
		m.stores++
	}
}

// Counters returns the standard counter map keyed by registry name —
// the per-cell counter delta the durability journal records and
// replay re-applies.
func (m *RunMetrics) Counters() map[string]uint64 {
	return map[string]uint64{
		"run.retired":        m.retired,
		"run.branches":       m.branches,
		"run.branches_taken": m.taken,
		"run.loads":          m.loads,
		"run.stores":         m.stores,
	}
}
