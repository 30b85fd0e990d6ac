package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"isacmp/internal/durable"
	"isacmp/internal/telemetry"
)

// -update regenerates the `run` manifest and pipeline-trace goldens:
//
//	go test ./cmd/isacmp -run 'TestRunGolden|TestRunTraceGolden' -update
var update = flag.Bool("update", false, "rewrite golden files")

// mainEnv marks a re-executed test binary that should behave as the
// isacmp command itself.
const mainEnv = "ISACMP_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(mainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCmd runs the command in a child process (this test binary,
// re-executed as main) and returns its stdout, stderr and exit code.
func runCmd(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &ee):
		code = ee.ExitCode()
	default:
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

// mustRun is runCmd that fails the test on a non-zero exit.
func mustRun(t *testing.T, args ...string) string {
	t.Helper()
	out, errOut, code := runCmd(t, args...)
	if code != 0 {
		t.Fatalf("isacmp %s: exit %d\n%s", strings.Join(args, " "), code, errOut)
	}
	return out
}

func readManifest(t *testing.T, path string) *telemetry.Manifest {
	t.Helper()
	m, err := telemetry.ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// canonicalManifest runs `isacmp run` with the given extra flags on
// the tiny stream workload across all four targets and returns the
// canonicalized manifest bytes.
func canonicalManifest(t *testing.T, extra ...string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "m.json")
	args := append([]string{"run", "-scale", "tiny", "-bench", "stream", "-target", "all", "-json", path}, extra...)
	mustRun(t, args...)
	m := readManifest(t, path)
	m.Canonicalize()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunGolden pins the canonicalized `run` manifest for each core
// model, with and without the L1D model, at one and two workers: the
// core stats, sink list, counters and analysis block must not depend
// on the worker count.
func TestRunGolden(t *testing.T) {
	for _, c := range []struct {
		golden string
		flags  []string
	}{
		{"run_emulation_stream_tiny.json", []string{"-core", "emulation"}},
		{"run_inorder_stream_tiny.json", []string{"-core", "inorder"}},
		{"run_inorder_cache_stream_tiny.json", []string{"-core", "inorder", "-cache"}},
		{"run_ooo_stream_tiny.json", []string{"-core", "ooo"}},
		{"run_ooo_cache_stream_tiny.json", []string{"-core", "ooo", "-cache"}},
	} {
		t.Run(c.golden, func(t *testing.T) {
			path := filepath.Join("testdata", c.golden)
			for _, par := range []string{"1", "2"} {
				got := canonicalManifest(t, append(c.flags, "-parallel", par)...)
				if *update {
					if err := durable.WriteFileAtomic(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run `go test ./cmd/isacmp -run TestRunGolden -update` to create)", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("-parallel %s: manifest drifted from %s\n-- got --\n%s", par, path, got)
				}
			}
		})
	}
}

// TestRunTraceGolden pins the emulation core's pipeline trace of one
// cell, with fusion off and on, at one and two workers. The trace is
// fed from the core's retirement stream, before fusion, so both
// settings must give the same file: each event k is the span [k, k+1)
// and the ring keeps the last -trace-cap sampled spans.
func TestRunTraceGolden(t *testing.T) {
	path := filepath.Join("testdata", "run_trace_emulation_stream_tiny.json")
	for _, c := range []struct {
		name  string
		flags []string
	}{
		{"fusion-off", nil},
		{"fusion-both", []string{"-fusion", "both"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, par := range []string{"1", "2"} {
				trace := filepath.Join(t.TempDir(), "t.json")
				args := append([]string{"run", "-scale", "tiny", "-bench", "stream", "-target", "rv64-gcc12",
					"-trace", trace, "-trace-cap", "256", "-trace-sample", "7", "-parallel", par}, c.flags...)
				mustRun(t, args...)
				got, err := os.ReadFile(trace)
				if err != nil {
					t.Fatal(err)
				}
				if *update {
					if err := durable.WriteFileAtomic(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run `go test ./cmd/isacmp -run TestRunTraceGolden -update` to create)", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("-parallel %s: pipeline trace drifted from %s", par, path)
				}
			}
		})
	}
}

// TestRunWarmCache: a second `run` over the same durability directory
// serves every cell from the content cache and recomputes nothing,
// with a canonical manifest identical to the first run's.
func TestRunWarmCache(t *testing.T) {
	dir := t.TempDir()
	d := filepath.Join(dir, "d")
	var canon [2][]byte
	for i := range canon {
		path := filepath.Join(dir, "m.json")
		mustRun(t, "run", "-scale", "tiny", "-bench", "stream", "-target", "all",
			"-core", "ooo", "-durable-dir", d, "-json", path)
		m := readManifest(t, path)
		st := m.Durable
		if st == nil {
			t.Fatal("manifest has no durable block")
		}
		if i == 0 && st.Computed != 4 {
			t.Fatalf("cold run computed %d cells, want 4", st.Computed)
		}
		if i == 1 && (st.Computed != 0 || st.Cached != 4) {
			t.Fatalf("warm run computed %d, cached %d cells; want 0 and 4", st.Computed, st.Cached)
		}
		m.Canonicalize()
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		canon[i] = buf.Bytes()
	}
	if !bytes.Equal(canon[0], canon[1]) {
		t.Errorf("warm-cache manifest differs from the computed one\n-- cold --\n%s\n-- warm --\n%s", canon[0], canon[1])
	}
}

// TestRunTracedNeverServed: a cell recording a pipeline trace cannot
// be replayed from cache, so traced cells are always computed and
// each run writes one trace file per cell.
func TestRunTracedNeverServed(t *testing.T) {
	dir := t.TempDir()
	d := filepath.Join(dir, "d")
	for i := 0; i < 2; i++ {
		path := filepath.Join(dir, "m.json")
		mustRun(t, "run", "-scale", "tiny", "-bench", "stream", "-target", "all",
			"-core", "ooo", "-trace", filepath.Join(dir, "t.json"),
			"-durable-dir", d, "-json", path)
		st := readManifest(t, path).Durable
		if st == nil || st.Computed != 0 || st.Cached != 0 || st.Resumed != 0 {
			t.Fatalf("run %d: durable block %+v, want no cell served or journaled", i, st)
		}
	}
	traces, err := filepath.Glob(filepath.Join(dir, "t-stream-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 4 {
		t.Fatalf("got trace files %v, want one per cell", traces)
	}
}

// TestRunProfileSpans: `run -profile-trace` records the setup,
// simulate, deliver and sink spans of every cell, like the matrix
// subcommands.
func TestRunProfileSpans(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.json")
	mustRun(t, "run", "-scale", "tiny", "-bench", "stream", "-target", "all",
		"-core", "ooo", "-profile-trace", path)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []telemetry.ChromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]map[string]bool{}
	for _, e := range doc.TraceEvents {
		cell := e.Args["cell"]
		if seen[cell] == nil {
			seen[cell] = map[string]bool{}
		}
		seen[cell][e.Cat] = true
	}
	for _, tgt := range []string{"AArch64/GCC 9.2", "RISC-V/GCC 9.2", "AArch64/GCC 12.2", "RISC-V/GCC 12.2"} {
		cell := "stream/" + tgt
		for _, stage := range []string{"setup", "simulate", "deliver", "sink"} {
			if !seen[cell][stage] {
				t.Errorf("%s: no %s span in the profile trace", cell, stage)
			}
		}
	}
}
