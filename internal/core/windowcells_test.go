package core

import (
	"fmt"
	"testing"

	"isacmp/internal/a64"
	"isacmp/internal/cc"
	"isacmp/internal/fusion"
	"isacmp/internal/isa"
	"isacmp/internal/mem"
	"isacmp/internal/rv64"
	"isacmp/internal/simeng"
	"isacmp/internal/workloads"
)

// eventRecorder keeps every event by value: a sink's *Event is only
// valid for the duration of the call.
type eventRecorder struct{ evs []isa.Event }

func (r *eventRecorder) Event(ev *isa.Event) { r.evs = append(r.evs, *ev) }

// newCellMachine compiles workload at scale for tgt and loads it.
func newCellMachine(tb testing.TB, workload string, scale workloads.Scale, tgt cc.Target) simeng.Machine {
	tb.Helper()
	compiled, err := cc.Compile(workloads.ByName(workload, scale), tgt)
	if err != nil {
		tb.Fatal(err)
	}
	m := mem.New(cc.TextBase, compiled.MemSize)
	var mach simeng.Machine
	if tgt.Arch == isa.RV64 {
		mach, err = rv64.NewMachine(compiled.File, m)
	} else {
		mach, err = a64.NewMachine(compiled.File, m)
	}
	if err != nil {
		tb.Fatal(err)
	}
	return mach
}

// recordCell runs one tiny-scale cell to completion on the emulation
// core and returns its retirement stream, rewritten by the fusion pass
// when cfg enables it.
func recordCell(tb testing.TB, workload string, tgt cc.Target, cfg fusion.Config) []isa.Event {
	tb.Helper()
	rec := &eventRecorder{}
	var sink isa.Sink = rec
	var pass *fusion.Pass
	if cfg.Active(tgt.Arch) {
		pass = fusion.NewPass(cfg, tgt.Arch, rec)
		sink = pass
	}
	if _, err := (&simeng.EmulationCore{}).Run(newCellMachine(tb, workload, workloads.Tiny, tgt), sink); err != nil {
		tb.Fatal(err)
	}
	if pass != nil {
		pass.Flush()
	}
	return rec.evs
}

// TestWindowedCPOracleWorkloads checks the single-pass tracker, the
// forced fold and the sharded analysis against the oracle on the
// retirement stream of every workload at tiny scale, on all four
// targets, with fusion off and with every rule on both ISAs.
func TestWindowedCPOracleWorkloads(t *testing.T) {
	both, err := fusion.ParseSpec("both")
	if err != nil {
		t.Fatal(err)
	}
	for _, fus := range []struct {
		name string
		cfg  fusion.Config
	}{{"off", fusion.Config{}}, {"both", both}} {
		for _, name := range workloads.Names() {
			for _, tgt := range cc.Targets() {
				evs := recordCell(t, name, tgt, fus.cfg)
				label := fmt.Sprintf("%s %s fusion=%s", name, tgt, fus.name)
				checkAgainstOracle(t, label, evs, tgt.Arch, PaperWindowSizes(), 0, 2)
			}
		}
	}
}

// windowBenchEvents bounds the recorded stream BenchmarkWindowedCP
// replays: the first 2^19 events of the small LBM cell (~29 MB of
// events) cover its initialisation, propagation and collision kernels.
const windowBenchEvents = 1 << 19

// BenchmarkWindowedCP times the windowed analysis at the paper's window
// sizes on a recorded real-cell stream (LBM, RISC-V GCC 12.2, small
// scale): the single-pass tracker against the forced per-window fold.
// It reports ns/event; the stream is recorded once, outside the timer.
func BenchmarkWindowedCP(b *testing.B) {
	mach := newCellMachine(b, "lbm", workloads.Small, cc.Target{Arch: isa.RV64, Flavor: cc.GCC12})
	evs := make([]isa.Event, windowBenchEvents)
	n := 0
	for ; n < len(evs); n++ {
		done, err := mach.Step(&evs[n])
		if err != nil {
			b.Fatal(err)
		}
		if done {
			break
		}
	}
	evs = evs[:n]
	for _, v := range []struct {
		name string
		make func() *WindowedCritPath
	}{
		{"single-pass", func() *WindowedCritPath { return NewWindowedCritPath(PaperWindowSizes()) }},
		{"fold", func() *WindowedCritPath { return foldWindowed(PaperWindowSizes(), 0) }},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w := v.make()
				w.Events(evs)
				benchWindows = w.Results()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(evs)), "ns/event")
		})
	}
}

// benchWindows keeps the benchmarked results live.
var benchWindows []WindowResult
