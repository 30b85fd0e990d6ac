package layers

import (
	"fmt"

	"isacmp/internal/benchdb"
	"isacmp/internal/isa"
)

// sinks are the analysis sinks the harness can attach, by span name.
var sinks = []string{"core.pathlen", "core.critpath", "core.scaledcp", "core.windowcp", "core.mix"}

// shareLayers are the layers whose self time is reported as a share of
// the traced busy time, with the span names each one owns.
var shareLayers = []struct {
	Name  string
	Spans []string
}{
	{"ir", []string{spanGen}},
	{"cc", []string{spanCompile}},
	{"simeng", []string{spanLoad, spanStepA64, spanStepRV}},
	{"fusion", []string{spanFusion}},
	{"core.pathlen", []string{"core.pathlen"}},
	{"core.critpath", []string{"core.critpath"}},
	{"core.scaledcp", []string{"core.scaledcp"}},
	{"core.windowcp", []string{"core.windowcp"}},
	{"core.mix", []string{"core.mix"}},
	{"report", []string{spanRender}},
}

// Metrics derives the per-layer metrics of a traced run from its
// spans and boundary counts. Layers the workload does not use report
// 0. Metrics that need more than the trace (ir.gen_ms, sched.*,
// trace.overhead_frac) are the caller's.
func (r *Run) Metrics() map[string]float64 {
	self := map[string]int64{}
	dur := map[string]int64{}
	var busy int64
	byWorker := map[int][]Span{}
	for _, s := range r.Spans {
		byWorker[s.Worker] = append(byWorker[s.Worker], s)
		dur[s.Name] += s.End - s.Start
	}
	for _, spans := range byWorker {
		busy += selfTimes(spans, self)
	}

	var retired, calls, text, fusIn, fusOut, dense, entries uint64
	retiredBy := map[isa.Arch]uint64{}
	events := map[string]uint64{}
	for _, c := range r.Cells {
		retired += c.Retired
		retiredBy[c.Arch] += c.Retired
		calls += c.StepNCalls
		text += c.TextBytes
		fusIn += c.FusionIn
		fusOut += c.FusionOut
		dense += uint64(c.Tracker.DenseWords)
		entries += uint64(c.Tracker.MapEntries)
		for name, n := range c.SinkEvents {
			events[name] += n
		}
	}

	m := map[string]float64{
		"cc.compile_ms":             float64(dur[spanCompile]) / 1e6,
		"cc.text_bytes":             float64(text),
		"simeng.load_ms":            float64(dur[spanLoad]) / 1e6,
		"simeng.a64.minst_per_s":    ratio(float64(retiredBy[isa.AArch64])*1e3, float64(self[spanStepA64])),
		"simeng.rv64.minst_per_s":   ratio(float64(retiredBy[isa.RV64])*1e3, float64(self[spanStepRV])),
		"simeng.retired":            float64(retired),
		"simeng.events_per_stepn":   ratio(float64(retired), float64(calls)),
		"fusion.ns_per_event":       ratio(float64(self[spanFusion]), float64(fusIn)),
		"fusion.out_per_in":         ratio(float64(fusOut), float64(fusIn)),
		"core.critpath.dense_words": float64(dense),
		"core.critpath.map_entries": float64(entries),
		"report.render_ms":          float64(dur[spanRender]) / 1e6,
		"trace.unattributed_share":  ratio(float64(self[spanCell]), float64(busy)),
	}
	for _, s := range sinks {
		m[s+".ns_per_event"] = ratio(float64(self[s]), float64(events[s]))
	}
	for _, l := range shareLayers {
		var ns int64
		for _, s := range l.Spans {
			ns += self[s]
		}
		m[l.Name+".self_share"] = ratio(float64(ns), float64(busy))
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stepBatch is the emulation core's StepN buffer length.
const stepBatch = 4096

// Guard checks that the traced machine kept the batched StepN path:
// each cell needs about retired/4096 StepN calls, not one per
// instruction. It returns one error (nil when the cell passes) per
// cell, in cell order.
func (r *Run) Guard() []error {
	errs := make([]error, len(r.Cells))
	for i, c := range r.Cells {
		want := (c.Retired + stepBatch - 1) / stepBatch
		if c.StepNCalls < want || c.StepNCalls > want+1 {
			errs[i] = fmt.Errorf("%d StepN calls for %d retired instructions, want %d or %d: the traced machine lost the batched path",
				c.StepNCalls, c.Retired, want, want+1)
		}
	}
	return errs
}

// Host is the measuring host's provenance: the benchdb fingerprint
// and noise probe every committed benchmark document carries.
type Host struct {
	Fingerprint *benchdb.Fingerprint `json:"fingerprint"`
	Noise       *benchdb.Probe       `json:"noise"`
}

// Provenance collects the host fingerprint and runs the noise probe.
func Provenance() Host {
	return Host{Fingerprint: benchdb.Collect(), Noise: benchdb.RunProbe(0)}
}
