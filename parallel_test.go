package isacmp

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"isacmp/internal/prof"
	"isacmp/internal/report"
	"isacmp/internal/simeng"
	"isacmp/internal/telemetry"
)

// matrixArtifacts runs the full tiny matrix at the given worker count
// and renders the two deterministic artifact forms: the text reports
// exactly as the CLIs print them, and the canonicalized run manifest
// JSON.
func matrixArtifacts(t *testing.T, parallel int) (text, manifest []byte) {
	t.Helper()
	return matrixArtifactsEx(t, MatrixExperiment{
		PathLength: true, CritPath: true, Scaled: true, Windowed: true,
		Parallel: parallel,
	})
}

// matrixArtifactsEx is matrixArtifacts over an arbitrary experiment —
// the fusion suites reuse it with Fusion, WrapMachine and Parallel set.
func matrixArtifactsEx(t *testing.T, ex MatrixExperiment) (text, manifest []byte) {
	t.Helper()
	progs := Suite(Tiny)
	rows, _, err := RunMatrix(progs, ex)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	m := telemetry.NewManifest("parallel-test", "tiny")
	for i, p := range progs {
		report.WritePathLengths(&buf, p.Name, rows[i])
		report.WriteCritPaths(&buf, p.Name, rows[i], false)
		report.WriteCritPaths(&buf, p.Name, rows[i], true)
		report.WriteWindowed(&buf, p.Name, rows[i])
		report.WriteFusion(&buf, p.Name, rows[i])
		report.AppendRows(m, p.Name, rows[i])
	}
	m.Canonicalize()
	var mbuf bytes.Buffer
	if err := m.Encode(&mbuf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), mbuf.Bytes()
}

// tinyCells is the cell count of the full tiny matrix: every workload
// of Suite(Tiny) on every target.
var tinyCells = len(Suite(Tiny)) * len(Targets())

// stepOnly hides StepN (embedding only the Machine interface), so the
// core drives the machine through the per-Step loop every
// non-BatchMachine takes.
type stepOnly struct{ simeng.Machine }

// stepwise returns ex with every cell's machine wrapped in stepOnly.
func stepwise(ex MatrixExperiment) MatrixExperiment {
	ex.WrapMachine = func(_, _ string, _ int, m simeng.Machine) simeng.Machine { return stepOnly{m} }
	return ex
}

// TestParallelByteIdentical enforces the -parallel determinism
// contract: the full analysis matrix run sequentially and run over a
// multi-worker pool must produce byte-identical report text and
// byte-identical canonicalized manifests — both when the pool has
// fewer workers than cells (every cell sequential) and when it has
// spare workers (at the paper's stride every cell still runs the
// single-pass tracker; at stride 1024, outside the tracker, every cell
// shards its windowed CP). The same holds with every watchdog —
// wall-clock deadline, instruction budget and retries — armed
// generously enough that none fires.
func TestParallelByteIdentical(t *testing.T) {
	seqText, seqManifest := matrixArtifacts(t, 1)
	full := MatrixExperiment{PathLength: true, CritPath: true, Scaled: true, Windowed: true}
	armed := full
	armed.CellTimeout, armed.MaxInstructions = time.Hour, 1<<62
	armed.Retries, armed.RetryBackoff = 2, 100*time.Millisecond
	for _, v := range []struct {
		name    string
		ex      MatrixExperiment
		workers int
	}{
		{"bare", full, 2}, {"bare", full, 5}, {"sharded cells", full, 2 * tinyCells},
		{"watchdogs armed", armed, 1}, {"watchdogs armed", armed, 2},
	} {
		ex := v.ex
		ex.Parallel = v.workers
		text, manifest := matrixArtifactsEx(t, ex)
		if !bytes.Equal(seqText, text) {
			t.Fatalf("%s, parallel=%d: report text differs from sequential", v.name, v.workers)
		}
		if !bytes.Equal(seqManifest, manifest) {
			t.Fatalf("%s, parallel=%d: canonicalized manifest differs from sequential", v.name, v.workers)
		}
	}

	strided := full
	strided.WindowStride, strided.Parallel = 1024, 1
	seqText, seqManifest = matrixArtifactsEx(t, strided)
	strided.Parallel = 2 * tinyCells
	text, manifest := matrixArtifactsEx(t, strided)
	if !bytes.Equal(seqText, text) || !bytes.Equal(seqManifest, manifest) {
		t.Fatalf("sharded cells at stride 1024, parallel=%d: output differs from sequential", strided.Parallel)
	}
}

// TestRunInstrumentedParallelIdentical: the instrumented single-run
// path (RunConfig.Parallel) must also be invariant — same Result, and
// byte-identical canonicalized manifest — at every worker budget, at
// the paper's stride (the single-pass tracker at every width) and at
// stride 1024 (sharded over the worker budget above 1).
func TestRunInstrumentedParallelIdentical(t *testing.T) {
	prog := Workload("stream", Tiny)
	bin, err := Compile(prog, Target{Arch: RV64, Flavor: GCC12})
	if err != nil {
		t.Fatal(err)
	}
	sel := Analyses{
		PathLength: true, CritPath: true, ScaledCritPath: true,
		Windowed: true, Mix: true, Branches: true,
	}

	run := func(parallel int) (*Result, []byte) {
		res, rec, err := bin.RunInstrumented(RunConfig{Analyses: sel, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		m := NewRunManifest("test", "tiny")
		m.Runs = append(m.Runs, rec)
		m.Canonicalize()
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}

	for _, stride := range []int{0, 1024} {
		sel.WindowStride = stride
		seqRes, seqManifest := run(1)
		parRes, parManifest := run(4)
		if !reflect.DeepEqual(seqRes, parRes) {
			t.Fatalf("stride %d: results differ:\nsequential %+v\nparallel   %+v", stride, seqRes, parRes)
		}
		if !bytes.Equal(seqManifest, parManifest) {
			t.Fatalf("stride %d: canonicalized manifests differ:\n%s\nvs\n%s", stride, seqManifest, parManifest)
		}
	}
}

// TestRunInstrumentedParallelWithModel: trace-driven timing models see
// the complete stream at every worker budget — cycle counts match the
// sequential run exactly.
func TestRunInstrumentedParallelWithModel(t *testing.T) {
	prog := Workload("stream", Tiny)
	bin, err := Compile(prog, Target{Arch: AArch64, Flavor: GCC12})
	if err != nil {
		t.Fatal(err)
	}
	for _, core := range []string{"inorder", "ooo"} {
		_, seqRec, err := bin.RunInstrumented(RunConfig{Core: core, Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, parRec, err := bin.RunInstrumented(RunConfig{Core: core, Parallel: 4})
		if err != nil {
			t.Fatal(err)
		}
		if seqRec.Core.Instructions != parRec.Core.Instructions || seqRec.Core.Cycles != parRec.Core.Cycles {
			t.Fatalf("%s: sequential %d insts/%d cycles, parallel %d insts/%d cycles",
				core, seqRec.Core.Instructions, seqRec.Core.Cycles,
				parRec.Core.Instructions, parRec.Core.Cycles)
		}
	}
}

// TestProfiledByteIdentical enforces the -profile pass-through
// contract: running the matrix with the span profiler live — at one
// worker and at several — must change no report byte and no
// canonicalized manifest byte, while the profiler itself captures a
// plausible timeline (spans for every stage on valid lanes).
func TestProfiledByteIdentical(t *testing.T) {
	progs := Suite(Tiny)
	run := func(parallel int, p *prof.Profiler) (text, manifest []byte) {
		ex := MatrixExperiment{
			PathLength: true, CritPath: true, Scaled: true, Windowed: true,
			Parallel: parallel, Prof: p,
		}
		rows, _, err := RunMatrix(progs, ex)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		m := telemetry.NewManifest("parallel-test", "tiny")
		for i, pr := range progs {
			report.WritePathLengths(&buf, pr.Name, rows[i])
			report.WriteCritPaths(&buf, pr.Name, rows[i], false)
			report.WriteCritPaths(&buf, pr.Name, rows[i], true)
			report.WriteWindowed(&buf, pr.Name, rows[i])
			report.AppendRows(m, pr.Name, rows[i])
		}
		m.Canonicalize()
		var mbuf bytes.Buffer
		if err := m.Encode(&mbuf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), mbuf.Bytes()
	}

	baseText, baseManifest := run(1, nil)
	for _, workers := range []int{1, 3} {
		p := prof.New(workers, 0)
		text, manifest := run(workers, p)
		if !bytes.Equal(baseText, text) {
			t.Fatalf("profile on, parallel=%d: report text differs from unprofiled", workers)
		}
		if !bytes.Equal(baseManifest, manifest) {
			t.Fatalf("profile on, parallel=%d: canonicalized manifest differs from unprofiled", workers)
		}
		spans := p.Spans()
		if len(spans) == 0 {
			t.Fatalf("parallel=%d: profiler captured no spans", workers)
		}
		stages := map[string]bool{}
		for _, s := range spans {
			if s.Lane < 0 || s.Lane >= p.Lanes() {
				t.Fatalf("span %+v on invalid lane (lanes=%d)", s, p.Lanes())
			}
			if s.Cell == "" {
				t.Fatalf("span %+v missing its cell", s)
			}
			stages[s.Name] = true
		}
		for _, want := range []string{"setup", "simulate", "deliver", "sink:pathlen", "sink:windowcp"} {
			if !stages[want] {
				t.Errorf("parallel=%d: no %q spans captured (got %v)", workers, want, stages)
			}
		}
	}
}

// TestSinkTimingEveryWidth: the tee times every batched delivery, so a
// non-canonical record carries per-sink cost at every worker budget —
// sampled_events covers the whole stream and the windowed CP has a
// measured time — for a single instrumented run and for matrix rows.
func TestSinkTimingEveryWidth(t *testing.T) {
	check := func(t *testing.T, what string, sinks []telemetry.SinkStats) {
		t.Helper()
		var sawWindowCP bool
		for _, s := range sinks {
			if s.Events == 0 || s.SampledEvents != s.Events {
				t.Errorf("%s: sink %s sampled %d of %d events, want all", what, s.Name, s.SampledEvents, s.Events)
			}
			if s.Name == "windowcp" {
				sawWindowCP = true
				if s.SampledNs == 0 || s.EstOverheadNs == 0 {
					t.Errorf("%s: windowcp sampled_ns=%d est_overhead_ns=%d, want > 0", what, s.SampledNs, s.EstOverheadNs)
				}
			}
		}
		if !sawWindowCP {
			t.Errorf("%s: no windowcp sink in %+v", what, sinks)
		}
	}
	bin, err := Compile(Workload("stream", Tiny), Target{Arch: RV64, Flavor: GCC12})
	if err != nil {
		t.Fatal(err)
	}
	sel := Analyses{PathLength: true, CritPath: true, Windowed: true}
	for _, parallel := range []int{1, 2} {
		_, rec, err := bin.RunInstrumented(RunConfig{Analyses: sel, Parallel: parallel})
		if err != nil {
			t.Fatal(err)
		}
		check(t, fmt.Sprintf("RunInstrumented parallel=%d", parallel), rec.Sinks)
		rows, _, err := RunMatrix(Suite(Tiny)[:1], MatrixExperiment{
			PathLength: true, CritPath: true, Windowed: true, Parallel: parallel,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows[0] {
			check(t, fmt.Sprintf("matrix %s parallel=%d", row.Target, parallel), row.Sinks)
		}
	}
}
