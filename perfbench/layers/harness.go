// Package layers is the traced half of the benchmark. It runs a
// workload's matrix cell by cell through each layer's public
// functions — cc.Compile, the a64/rv64 NewMachine, the machine's
// StepN, the fusion pass and every analysis sink — on the product's
// sequential cell path, and times each call with a span. Per-layer
// numbers come from these spans; end-to-end numbers never do.
package layers

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"isacmp"
	"isacmp/internal/a64"
	"isacmp/internal/cc"
	"isacmp/internal/core"
	"isacmp/internal/elfio"
	"isacmp/internal/fusion"
	"isacmp/internal/isa"
	"isacmp/internal/mem"
	"isacmp/internal/report"
	"isacmp/internal/rv64"
	"isacmp/internal/simeng"
	"isacmp/internal/telemetry"
	"isacmp/perfbench/e2e"
)

// Run is one execution of the harness.
type Run struct {
	Rows        [][]isacmp.MatrixRow
	WallSeconds float64
	// TraceID and Spans are empty on an untraced run.
	TraceID string
	Spans   []Span
	Cells   []CellCounts
}

// CellCounts are the counts recorded at the layer boundaries of one
// cell.
type CellCounts struct {
	Arch       isa.Arch
	TextBytes  uint64
	Retired    uint64
	StepNCalls uint64
	// SinkEvents is the number of events each traced sink received.
	SinkEvents map[string]uint64
	FusionIn   uint64
	FusionOut  uint64
	Tracker    core.TrackerStats
}

// Execute runs the workload's matrix: programs come from gen, cells
// are spread over the workload's worker count, and each cell runs
// the sequential engine path (one goroutine: machine, fusion pass,
// tee of analysis sinks). With traced set, every layer call records a
// span.
func Execute(spec e2e.Spec, gen func() []*isacmp.Program, traced bool) (*Run, error) {
	ex := spec.Experiment()
	workers := spec.Workers()
	start := time.Now()
	recs := make([]*recorder, workers+1)
	if traced {
		for i := range recs {
			recs[i] = newRecorder(i, start)
		}
	}
	main := recs[workers]

	g := main.begin(spanGen)
	progs := gen()
	main.end(g)

	targets := isacmp.Targets()
	run := &Run{Rows: make([][]isacmp.MatrixRow, len(progs)), Cells: make([]CellCounts, len(progs)*len(targets))}
	for i := range run.Rows {
		run.Rows[i] = make([]isacmp.MatrixRow, len(targets))
	}
	errs := make([]error, len(run.Cells))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(rec *recorder) {
			defer wg.Done()
			for k := range jobs {
				pi, ti := k/len(targets), k%len(targets)
				run.Rows[pi][ti], run.Cells[k], errs[k] = runCell(rec, progs[pi], targets[ti], ex)
			}
		}(recs[w])
	}
	for k := range run.Cells {
		jobs <- k
	}
	close(jobs)
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", progs[k/len(targets)].Name, targets[k%len(targets)], err)
		}
	}

	r := main.begin(spanRender)
	render(&bytes.Buffer{}, progs, run.Rows, ex)
	main.end(r)
	run.WallSeconds = time.Since(start).Seconds()
	if traced {
		run.TraceID = newTraceID()
		for _, rec := range recs {
			run.Spans = append(run.Spans, rec.spans...)
		}
	}
	return run, nil
}

// render writes the tables `isacmp` prints for the workload's
// analyses with the product's report writers.
func render(w *bytes.Buffer, progs []*isacmp.Program, rows [][]isacmp.MatrixRow, ex isacmp.MatrixExperiment) {
	for i, p := range progs {
		if ex.PathLength {
			report.WritePathLengths(w, p.Name, rows[i])
		}
		if ex.CritPath {
			report.WriteCritPaths(w, p.Name, rows[i], false)
		}
		if ex.Scaled {
			report.WriteCritPaths(w, p.Name, rows[i], true)
		}
		if ex.Fusion.Enabled() {
			report.WriteFusion(w, p.Name, rows[i])
		}
		if ex.Windowed {
			report.WriteWindowed(w, p.Name, rows[i])
		}
		if ex.Mix {
			report.WriteMix(w, p.Name, rows[i])
		}
	}
}

// runCell mirrors the engine's sequential cell path (report.runOne at
// Parallel 1) with every optional hook off, timing each layer call
// when rec is non-nil.
func runCell(rec *recorder, prog *isacmp.Program, tgt cc.Target, ex isacmp.MatrixExperiment) (report.Row, CellCounts, error) {
	row := report.Row{Target: tgt}
	counts := CellCounts{Arch: tgt.Arch, SinkEvents: map[string]uint64{}}
	cell := rec.begin(spanCell)
	defer rec.end(cell)

	s := rec.begin(spanCompile)
	compiled, err := cc.Compile(prog, tgt)
	rec.end(s)
	if err != nil {
		return row, counts, err
	}
	for _, seg := range compiled.File.Segments {
		if seg.Flags&elfio.PFX != 0 {
			counts.TextBytes += uint64(len(seg.Data))
		}
	}

	s = rec.begin(spanLoad)
	m := mem.New(cc.TextBase, compiled.MemSize)
	var mach simeng.Machine
	stepSpan := spanStepA64
	if tgt.Arch == isa.AArch64 {
		mach, err = a64.NewMachine(compiled.File, m)
	} else {
		mach, err = rv64.NewMachine(compiled.File, m)
		stepSpan = spanStepRV
	}
	rec.end(s)
	if err != nil {
		return row, counts, err
	}
	var tm *tracedMachine
	if rec != nil {
		bm, ok := mach.(simeng.BatchMachine)
		if !ok {
			return row, counts, fmt.Errorf("%T has no batched StepN path", mach)
		}
		tm = &tracedMachine{BatchMachine: bm, rec: rec, name: stepSpan}
		mach = tm
	}

	tee := telemetry.NewTee()
	var traced []*tracedSink
	add := func(name string, sink isa.Sink) {
		if rec != nil {
			ts := &tracedSink{inner: sink, rec: rec, name: name}
			traced = append(traced, ts)
			sink = ts
		}
		tee.Add(name, sink)
	}
	var pl *core.PathLength
	if ex.PathLength {
		pl = core.NewPathLength(compiled.File.Symbols)
		add("core.pathlen", pl)
	}
	var cp, scp *core.CritPath
	if ex.CritPath {
		cp = core.NewCritPath()
		cp.SetDenseRange(cc.TextBase, compiled.MemSize)
		add("core.critpath", cp)
	}
	if ex.Scaled {
		scp = core.NewScaledCritPath(simeng.TX2Latencies())
		scp.SetDenseRange(cc.TextBase, compiled.MemSize)
		add("core.scaledcp", scp)
	}
	var win core.WindowAnalyzer
	if ex.Windowed {
		win = core.NewWindowedCritPathStride(core.PaperWindowSizes(), 0)
		add("core.windowcp", win)
	}
	var mix *core.Mix
	var br *core.BranchProfile
	if ex.Mix {
		// The mix analysis is two sinks; both count as core.mix.
		mix, br = core.NewMix(), core.NewBranchProfile(nil)
		add("core.mix", mix)
		add("core.mix", br)
	}

	var sink isa.Sink = tee
	var fus *fusion.Pass
	var fusSink *tracedSink
	if ex.Fusion.Active(tgt.Arch) {
		fus = fusion.NewPass(ex.Fusion, tgt.Arch, tee)
		sink = fus
		if rec != nil {
			fusSink = &tracedSink{inner: fus, rec: rec, name: spanFusion}
			sink = fusSink
		}
	}
	stats, err := (&simeng.EmulationCore{}).Run(mach, sink)
	if err != nil {
		return row, counts, err
	}
	if fus != nil {
		if fusSink != nil {
			id := rec.begin(spanFusion)
			fus.Flush()
			rec.end(id)
		} else {
			fus.Flush()
		}
		st := fus.Stats()
		counts.FusionIn, counts.FusionOut = st.EventsIn, st.EventsOut
		row.Fusion = &telemetry.FusionStats{Spec: ex.Fusion.Spec(), EventsIn: st.EventsIn, EventsOut: st.EventsOut}
	}

	counts.Retired = stats.Instructions
	if tm != nil {
		counts.StepNCalls = tm.calls
	}
	for _, ts := range traced {
		counts.SinkEvents[ts.name] += ts.events
	}
	row.PathLen = stats.Instructions
	if pl != nil {
		row.Regions, row.Other = pl.Counts(), pl.Other()
	}
	if cp != nil {
		row.CP, row.ILP, row.Runtime = cp.CP(), cp.ILP(), cp.RuntimeSeconds()
		counts.Tracker = cp.TrackerStats()
	}
	if scp != nil {
		row.ScaledCP, row.ScaledILP, row.ScaledRuntime = scp.CP(), scp.ILP(), scp.RuntimeSeconds()
	}
	if win != nil {
		row.Windows = win.Results()
	}
	if mix != nil {
		row.MixCounts = mix.Counts()
		row.BranchDensity, row.BranchTaken = br.Density(), br.TakenRate()
	}
	return row, counts, nil
}

// tracedMachine times every StepN call. It embeds the machine's
// batched interface, so the core keeps its StepN fast path.
type tracedMachine struct {
	simeng.BatchMachine
	rec   *recorder
	name  string
	calls uint64
}

func (m *tracedMachine) StepN(evs []isa.Event) (int, bool, error) {
	id := m.rec.begin(m.name)
	n, done, err := m.BatchMachine.StepN(evs)
	m.rec.end(id)
	m.calls++
	return n, done, err
}

// tracedSink times every delivery into one sink.
type tracedSink struct {
	inner  isa.Sink
	rec    *recorder
	name   string
	events uint64
}

func (s *tracedSink) Event(ev *isa.Event) {
	id := s.rec.begin(s.name)
	s.inner.Event(ev)
	s.rec.end(id)
	s.events++
}

func (s *tracedSink) Events(evs []isa.Event) {
	id := s.rec.begin(s.name)
	isa.DeliverBatch(s.inner, evs)
	s.rec.end(id)
	s.events += uint64(len(evs))
}
