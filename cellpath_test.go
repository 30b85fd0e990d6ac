package isacmp

import (
	"errors"
	"reflect"
	"testing"

	"isacmp/internal/fusion"
	"isacmp/internal/report"
	"isacmp/internal/simeng"
)

// TestCrossPathAgreement: the matrix engine (RunMatrix), the
// instrumented single run (RunInstrumented) and the plain analysis
// call (Analyse) must agree cell for cell — every workload at tiny
// scale, every target, fusion off and on, one and two workers.
func TestCrossPathAgreement(t *testing.T) {
	progs := Suite(Tiny)
	sel := Analyses{
		PathLength: true, CritPath: true, ScaledCritPath: true, Windowed: true,
		Mix: true, Branches: true,
	}
	for _, fcfg := range []FusionConfig{{}, {RV64: true, A64: true, Rules: fusion.AllRules}} {
		for _, parallel := range []int{1, 2} {
			rows, _, err := RunMatrix(progs, MatrixExperiment{
				PathLength: true, CritPath: true, Scaled: true, Windowed: true, Mix: true,
				Metrics: NewMetricsRegistry(), Fusion: fcfg, Parallel: parallel,
			})
			if err != nil {
				t.Fatal(err)
			}
			for pi, p := range progs {
				for ti, tgt := range Targets() {
					row := rows[pi][ti]
					if row.Failed() || row.Target != tgt {
						t.Fatalf("%s/%s: unexpected matrix row %+v", p.Name, tgt, row)
					}
					name := p.Name + "/" + tgt.String() + "/fusion=" + fcfg.Spec()
					bin, err := Compile(p, tgt)
					if err != nil {
						t.Fatal(err)
					}
					res, rec, err := bin.RunInstrumented(RunConfig{
						Analyses: sel, Metrics: NewMetricsRegistry(), Fusion: fcfg, Parallel: parallel,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want := report.RowRecord(p.Name, row)
					if !reflect.DeepEqual(rec.Results, want.Results) {
						t.Errorf("%s parallel=%d: RunInstrumented results\n%+v\nmatrix row\n%+v",
							name, parallel, rec.Results, want.Results)
					}
					if !reflect.DeepEqual(rec.Fusion, want.Fusion) {
						t.Errorf("%s parallel=%d: fusion block %+v, matrix %+v", name, parallel, rec.Fusion, want.Fusion)
					}
					if !reflect.DeepEqual(rec.Counters, row.Counters) {
						t.Errorf("%s parallel=%d: counters %v, matrix %v", name, parallel, rec.Counters, row.Counters)
					}
					if fcfg.Enabled() {
						continue // Analyse has no fusion pass
					}
					plain, err := bin.Analyse(sel)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !reflect.DeepEqual(plain, res) {
						t.Errorf("%s parallel=%d: Analyse\n%+v\nRunInstrumented\n%+v", name, parallel, plain, res)
					}
				}
			}
		}
	}
}

// TestRunInstrumentedBudget: a run over its retirement budget fails
// with an error that still matches the ErrBudget sentinel.
func TestRunInstrumentedBudget(t *testing.T) {
	bin, err := Compile(Workload("stream", Tiny), Target{Arch: AArch64, Flavor: GCC12})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = bin.RunInstrumented(RunConfig{Analyses: Analyses{CritPath: true}, MaxInstructions: 100})
	if !errors.Is(err, simeng.ErrBudget) {
		t.Fatalf("err = %v, want an ErrBudget error", err)
	}
}

// TestCompiledOptionsExecute: Analyse and RunInstrumented execute the
// binary's own code, so an ablation knob passed to CompileWithOptions
// shows up in the result.
func TestCompiledOptionsExecute(t *testing.T) {
	prog := Workload("stream", Tiny)
	tgt := Target{Arch: RV64, Flavor: GCC12}
	def, err := Compile(prog, tgt)
	if err != nil {
		t.Fatal(err)
	}
	abl, err := CompileWithOptions(prog, tgt, CompilerOptions{NoStrengthReduction: true})
	if err != nil {
		t.Fatal(err)
	}
	sel := Analyses{PathLength: true}
	want, err := abl.Run()
	if err != nil {
		t.Fatal(err)
	}
	defRes, err := def.Analyse(sel)
	if err != nil {
		t.Fatal(err)
	}
	if defRes.Stats.Instructions == want.Instructions {
		t.Fatalf("NoStrengthReduction left the path length at %d; pick a knob that changes it", want.Instructions)
	}
	res, err := abl.Analyse(sel)
	if err != nil {
		t.Fatal(err)
	}
	_, rec, err := abl.RunInstrumented(RunConfig{Analyses: sel})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Instructions != want.Instructions || rec.Results.PathLen != want.Instructions {
		t.Fatalf("Analyse retired %d, RunInstrumented %d; the ablated binary retires %d",
			res.Stats.Instructions, rec.Results.PathLen, want.Instructions)
	}
}
