package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"isacmp"
	"isacmp/perfbench/e2e"
)

// benchmarkDoc is the part of BENCHMARK.json the tests check.
type benchmarkDoc struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkDoc(t *testing.T) benchmarkDoc {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalog the command
// prints and the committed BENCHMARK.json in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	doc := readBenchmarkDoc(t)
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var specs []string
	for _, s := range e2e.Specs {
		specs = append(specs, s.Name)
	}
	if strings.Join(names, ",") != strings.Join(specs, ",") {
		t.Errorf("BENCHMARK.json workloads %v, specs %v", names, specs)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalog %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalog %s %s %s", kind, i, g, m.Name, m.Unit, m.Better)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}

// TestSmoke runs every workload at Tiny sizes, untraced and traced,
// and checks that the result line is correct and names every metric
// BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	doc := readBenchmarkDoc(t)
	for _, spec := range e2e.Specs {
		for _, seed := range []string{"0", "11"} {
			for trace, want := range [][]struct{ Name, Unit, Better string }{doc.EndToEnd, doc.PerLayer} {
				var out, errs bytes.Buffer
				args := []string{"--workload", spec.Name, "--tiny", "--seconds", "0", "--seed", seed,
					"--trace", []string{"0", "1"}[trace], "--trace-out", filepath.Join(t.TempDir(), "trace.json")}
				if code := run(args, &out, &errs); code != 0 {
					t.Fatalf("%v: exit %d: %s", args, code, errs.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("%v: last line: %v", args, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted != 20 {
					t.Errorf("%v: correct=%t attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, out.String())
				}
				var got, names []string
				for name, v := range res.Metrics {
					got = append(got, name+" "+v.Unit)
				}
				for _, m := range want {
					names = append(names, m.Name+" "+m.Unit)
				}
				sort.Strings(got)
				sort.Strings(names)
				if strings.Join(got, ",") != strings.Join(names, ",") {
					t.Errorf("%v: metrics\n got %v\nwant %v", args, got, names)
				}
			}
		}
	}
}

// TestDefaultSeedIsPreset pins the default seed of repro-small to the
// Small suite the ROADMAP baseline was measured on.
func TestDefaultSeedIsPreset(t *testing.T) {
	spec, err := e2e.Lookup("repro-small")
	if err != nil {
		t.Fatal(err)
	}
	got := e2e.Programs(spec.Params(e2e.DefaultSeed, false))
	want := isacmp.Suite(isacmp.Small)
	tgt := isacmp.Targets()[0]
	for i := range want {
		a, err := isacmp.Compile(got[i], tgt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := isacmp.Compile(want[i], tgt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.ELF(), b.ELF()) {
			t.Errorf("%s: default-seed program differs from the Small preset", want[i].Name)
		}
	}
}

// TestSeedsKeepWork checks that reshaped inputs keep each builder's
// loop-nest size within 5% of the preset, so run time is comparable
// across seeds while shapes and working sets vary.
func TestSeedsKeepWork(t *testing.T) {
	for _, spec := range e2e.Specs {
		base := spec.Params(e2e.DefaultSeed, false)
		changed := false
		for seed := int64(1); seed <= 50; seed++ {
			for i, p := range spec.Params(seed, false) {
				w, w0 := product(p), product(base[i])
				if r := w / w0; r < 0.95 || r > 1.05 {
					t.Errorf("%s seed %d builder %d: params %v do %.3f of the preset's work %v", spec.Name, seed, i, p, r, base[i])
				}
				if !slices.Equal(p, base[i]) {
					changed = true
				}
			}
		}
		if !changed {
			t.Errorf("%s: no seed changes any input", spec.Name)
		}
	}
}

func product(p []int) float64 {
	w := 1.0
	for _, v := range p {
		w *= float64(v)
	}
	return w
}
