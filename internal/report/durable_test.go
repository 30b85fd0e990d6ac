package report

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"isacmp/internal/durable"
	"isacmp/internal/faultinject"
	"isacmp/internal/ir"
	"isacmp/internal/obs"
	"isacmp/internal/telemetry"
	"isacmp/internal/workloads"
)

// The acceptance tests for the durability layer: a run interrupted at
// any point — a truncated journal, a SIGKILLed process — must resume
// to a manifest and report text byte-identical to the uninterrupted
// run, a warm cache must recompute zero cells, and the drain signal
// must interrupt a pending retry backoff immediately.

// durableEx is the reference experiment for the identity tests:
// sequential (so registry counter creation order is deterministic and
// whole-manifest byte comparison is meaningful) with a metrics
// registry attached, exercising the transactional counter replay.
func durableEx() Experiment {
	return Experiment{
		PathLength: true, CritPath: true, Scaled: true,
		Parallel: 1, Metrics: telemetry.NewRegistry(),
	}
}

// canonManifest renders the suite result as a canonicalized manifest
// plus the text report — the two byte-identity currencies of the
// resume contract.
func canonManifest(t *testing.T, progs []*ir.Program, all [][]Row) (string, string) {
	t.Helper()
	m := telemetry.NewManifest("durable-test", "tiny")
	var text bytes.Buffer
	for i, p := range progs {
		WritePathLengths(&text, p.Name, all[i])
		WriteCritPaths(&text, p.Name, all[i], false)
		AppendRows(m, p.Name, all[i])
	}
	m.Failures = CollectFailures(all)
	m.Canonicalize()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String(), text.String()
}

// runDurable runs the suite with a durable handle attached and returns
// the canonical manifest, report text and durability stats.
func runDurable(t *testing.T, progs []*ir.Program, ex Experiment, drun *durable.Run) (string, string, durable.Stats) {
	t.Helper()
	ex.Durable = drun
	all, _, err := RunSuite(progs, ex)
	if err != nil {
		t.Fatal(err)
	}
	manifest, text := canonManifest(t, progs, all)
	return manifest, text, drun.Stats()
}

// TestDurableResumeAfterTruncatedJournal simulates a crash by chopping
// the journal mid-file and deleting the cache, then resumes: the
// replayed-plus-recomputed run must be byte-identical to the
// uninterrupted one, manifest and report text both.
func TestDurableResumeAfterTruncatedJournal(t *testing.T) {
	progs := resilienceProgs(t)
	clean, _, err := RunSuite(progs, durableEx())
	if err != nil {
		t.Fatal(err)
	}
	wantManifest, wantText := canonManifest(t, progs, clean)

	dir := t.TempDir()
	drun, err := durable.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, st := runDurable(t, progs, durableEx(), drun); st.Computed != 8 {
		t.Fatalf("first run computed %d cells, want 8", st.Computed)
	}
	if err := drun.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash: keep roughly half the journal (cutting at a record
	// boundary) and wipe the cache so the lost cells must recompute
	// rather than come back as cache hits.
	data, err := os.ReadFile(durable.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if err := os.WriteFile(durable.JournalPath(dir), bytes.Join(lines[:len(lines)/2], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(durable.CachePath(dir)); err != nil {
		t.Fatal(err)
	}

	res, err := durable.Resume(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if !res.Resumed() {
		t.Fatal("Resume handle must report Resumed")
	}
	gotManifest, gotText, st := runDurable(t, progs, durableEx(), res)
	if st.Resumed == 0 || st.Computed == 0 {
		t.Fatalf("stats = %+v, want both replayed and recomputed cells after truncation", st)
	}
	if st.Resumed+st.Computed != 8 {
		t.Fatalf("stats = %+v, want resumed+computed == 8", st)
	}
	if gotManifest != wantManifest {
		t.Errorf("resumed manifest drifted from uninterrupted run:\n got %s\nwant %s", gotManifest, wantManifest)
	}
	if gotText != wantText {
		t.Errorf("resumed report text drifted from uninterrupted run:\n got %s\nwant %s", gotText, wantText)
	}
}

// TestDurableAnalysisSpec pins the content-address spec: the matrix
// subcommands' keys stay byte-identical (so existing caches keep
// serving them), and the timing-model and dependency-distance knobs
// reach the key only when set.
func TestDurableAnalysisSpec(t *testing.T) {
	reg := telemetry.NewRegistry()
	for _, c := range []struct {
		ex   Experiment
		want string
	}{
		{Experiment{PathLength: true, CritPath: true, Scaled: true, Windowed: true, Metrics: reg},
			"analysis/v1 pl=true cp=true sc=true win=true mix=false gcc12=false sizes=[] stride=0 maxinstr=0 metrics=true"},
		{Experiment{Windowed: true, GCC12Only: true, WindowStride: 8, Metrics: reg},
			"analysis/v1 pl=false cp=false sc=false win=true mix=false gcc12=true sizes=[] stride=8 maxinstr=0 metrics=true"},
		{Experiment{Mix: true, Core: "emulation", Metrics: reg},
			"analysis/v1 pl=false cp=false sc=false win=false mix=true gcc12=false sizes=[] stride=0 maxinstr=0 metrics=true"},
		{Experiment{Mix: true, Core: "ooo", Cache: true, Metrics: reg},
			"analysis/v1 pl=false cp=false sc=false win=false mix=true gcc12=false sizes=[] stride=0 maxinstr=0 metrics=true core=ooo cache=true"},
		{Experiment{DepDistances: true, Core: "inorder"},
			"analysis/v1 pl=false cp=false sc=false win=false mix=false gcc12=false sizes=[] stride=0 maxinstr=0 metrics=false dep=true core=inorder cache=false"},
	} {
		if got := analysisSpec(c.ex); got != c.want {
			t.Errorf("analysisSpec = %q, want %q", got, c.want)
		}
	}
}

// TestDurableWarmCacheZeroRecompute pins the content-cache contract: a
// second Open of the same directory (fresh journal, persisted cache)
// serves every cell from cache, recomputes zero, and still produces
// byte-identical output.
func TestDurableWarmCacheZeroRecompute(t *testing.T) {
	progs := resilienceProgs(t)
	dir := t.TempDir()
	drun, err := durable.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantManifest, wantText, _ := runDurable(t, progs, durableEx(), drun)
	drun.Close()

	warm, err := durable.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	gotManifest, gotText, st := runDurable(t, progs, durableEx(), warm)
	if st.Computed != 0 {
		t.Errorf("warm-cache run computed %d cells, want 0", st.Computed)
	}
	if st.Cached != 8 {
		t.Errorf("warm-cache run served %d cells from cache, want 8", st.Cached)
	}
	if gotManifest != wantManifest || gotText != wantText {
		t.Error("warm-cache run output drifted from computed run")
	}
}

// TestDurableOffIdentity pins that arming durability changes no output
// byte relative to a plain run — the journal-off byte-identity
// contract.
func TestDurableOffIdentity(t *testing.T) {
	progs := resilienceProgs(t)
	plain, _, err := RunSuite(progs, durableEx())
	if err != nil {
		t.Fatal(err)
	}
	wantManifest, wantText := canonManifest(t, progs, plain)

	drun, err := durable.Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer drun.Close()
	gotManifest, gotText, _ := runDurable(t, progs, durableEx(), drun)
	if gotManifest != wantManifest || gotText != wantText {
		t.Error("durable run output drifted from plain run")
	}
}

// TestDurableHashMismatchReruns changes the analysis spec between run
// and resume: every journal record's content hash goes stale, the run
// warns and recomputes every cell, and the stats record the
// mismatches.
func TestDurableHashMismatchReruns(t *testing.T) {
	progs := resilienceProgs(t)
	dir := t.TempDir()
	drun, err := durable.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	runDurable(t, progs, durableEx(), drun)
	drun.Close()

	res, err := durable.Resume(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	var warnings []string
	res.Warn = func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	ex := durableEx()
	ex.Windowed = true // spec change: journal hashes no longer match
	_, _, st := runDurable(t, progs, ex, res)
	if st.HashMismatches != 8 {
		t.Errorf("hash mismatches = %d, want 8", st.HashMismatches)
	}
	if st.Resumed != 0 || st.Computed != 8 {
		t.Errorf("stats = %+v, want every cell recomputed", st)
	}
	if len(warnings) != 8 || !strings.Contains(warnings[0], "does not match inputs") {
		t.Errorf("warnings = %v, want 8 hash-mismatch warnings", warnings)
	}
}

// TestDurableFailureReplay pins that a journaled terminal failure is
// replayed verbatim on resume — a cell that deterministically dies is
// not re-run, and its FAILED row keeps the original reason and attempt
// history.
func TestDurableFailureReplay(t *testing.T) {
	progs := resilienceProgs(t)
	inj := faultinject.New(1,
		faultinject.Plan{Workload: "stream", Target: "RISC-V/GCC 9.2", Kind: faultinject.Decode, At: 100})
	defer inj.Close()
	ex := durableEx()
	ex.WrapMachine = inj.WrapMachine
	ex.WrapSink = inj.WrapSink

	dir := t.TempDir()
	drun, err := durable.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantManifest, wantText, st := runDurable(t, progs, ex, drun)
	drun.Close()
	if st.Computed != 8 {
		t.Fatalf("first run computed %d cells (failures count as computed), want 8", st.Computed)
	}

	res, err := durable.Resume(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	board := obs.NewBoard("replay", nil)
	rex := ex
	rex.Durable, rex.Status = res, board
	all, _, err := RunSuite(progs, rex)
	if err != nil {
		t.Fatal(err)
	}
	gotManifest, gotText := canonManifest(t, progs, all)
	st = res.Stats()
	if st.Resumed != 8 || st.Computed != 0 {
		t.Errorf("stats = %+v, want every cell (the failure included) replayed", st)
	}
	if st.FailedReplayed != 1 {
		t.Errorf("failed replayed = %d, want 1", st.FailedReplayed)
	}
	if gotManifest != wantManifest || gotText != wantText {
		t.Error("failure-replay output drifted from original run")
	}

	// The board shows the replayed failure at its record's retired count.
	fails := CollectFailures(all)
	if len(fails) != 1 || fails[0].Retired == 0 {
		t.Fatalf("replayed failures = %+v, want one with a retired count", fails)
	}
	f := fails[0]
	for _, c := range board.Status().Cells {
		if c.Workload == f.Workload && c.Target == f.Target {
			if c.State != obs.CellFailed || c.Source != "journal" || c.Retired != f.Retired {
				t.Errorf("board cell %+v, want failed from journal with retired %d", c, f.Retired)
			}
			return
		}
	}
	t.Errorf("board has no cell %s/%s", f.Workload, f.Target)
}

// TestDurableDrainedCellsRerun pins the drain journaling rule: cells
// that never started because the matrix was draining are not
// journaled, so a resume recomputes exactly those cells.
func TestDurableDrainedCellsRerun(t *testing.T) {
	progs := resilienceProgs(t)
	dir := t.TempDir()
	drun, err := durable.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	drain, cancel := context.WithCancel(context.Background())
	cancel() // draining before the first cell starts
	ex := durableEx()
	ex.Drain = drain
	ex.Durable = drun
	all, _, err := RunSuite(progs, ex)
	if err != nil {
		t.Fatal(err)
	}
	drun.Close()
	if n := CountFailures(all); n != 8 {
		t.Fatalf("drained run failures = %d, want all 8 cells", n)
	}
	for _, f := range CollectFailures(all) {
		if f.Reason != "deadline" {
			t.Errorf("%s/%s: drained reason = %s, want deadline", f.Workload, f.Target, f.Reason)
		}
	}

	res, err := durable.Resume(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	_, _, st := runDurable(t, progs, durableEx(), res)
	if st.Resumed != 0 || st.Computed != 8 {
		t.Errorf("stats after drained run = %+v, want every cell recomputed (drained cells must not be journaled)", st)
	}
}

// TestDrainInterruptsRetryBackoff is the context-aware backoff test: a
// cell that fails every attempt with a long retry backoff must abandon
// the pending sleep the moment the drain signal fires, so SIGTERM (or
// -fail-fast) is never delayed by a backoff timer.
func TestDrainInterruptsRetryBackoff(t *testing.T) {
	prog := workloads.ByName("stream", workloads.Tiny)
	if prog == nil {
		t.Fatal("stream workload missing")
	}
	inj := faultinject.New(1, faultinject.Plan{Kind: faultinject.Decode, At: 10})
	defer inj.Close()
	drain, cancel := context.WithCancel(context.Background())
	ex := Experiment{
		PathLength: true, Parallel: 1,
		Retries: 3, RetryBackoff: time.Hour,
		Drain:       drain,
		WrapMachine: inj.WrapMachine,
		WrapSink:    inj.WrapSink,
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	all, _, err := RunSuite([]*ir.Program{prog}, ex)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("drained run took %v: the pending retry backoff was not interrupted", elapsed)
	}
	if n := CountFailures(all); n != 4 {
		t.Errorf("failures = %d, want all 4 cells", n)
	}
}

// TestChaosKillResume is the crash-safety acceptance test: a child
// process running the matrix with a journal armed is SIGKILLed at a
// randomized point, the parent resumes the directory, and the combined
// replayed-plus-recomputed output must be byte-identical to an
// uninterrupted run — manifest and report text both. Whatever the kill
// hits (before the first record, mid-journal, after completion), the
// contract is the same.
func TestChaosKillResume(t *testing.T) {
	progs := resilienceProgs(t)
	clean, _, err := RunSuite(progs, durableEx())
	if err != nil {
		t.Fatal(err)
	}
	wantManifest, wantText := canonManifest(t, progs, clean)

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestChaosChildProcess$", "-test.v")
	cmd.Env = append(os.Environ(), "ISACMP_CHAOS_DIR="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	delay := time.Duration(rand.Int63n(int64(150 * time.Millisecond)))
	time.Sleep(delay)
	cmd.Process.Kill() // SIGKILL: no deferred cleanup, no journal close
	cmd.Wait()
	t.Logf("killed chaos child after %v", delay)

	res, err := durable.Resume(dir, nil)
	if err != nil {
		// Killed before the child even created the journal: resume has
		// nothing to replay and the run starts fresh — still a valid
		// crash point.
		if res, err = durable.Open(dir, nil); err != nil {
			t.Fatal(err)
		}
	}
	defer res.Close()
	gotManifest, gotText, st := runDurable(t, progs, durableEx(), res)
	t.Logf("resume stats: %+v", st)
	if st.Resumed+st.Cached+st.Computed != 8 {
		t.Errorf("stats = %+v, want resumed+cached+computed == 8", st)
	}
	if gotManifest != wantManifest {
		t.Errorf("post-kill resumed manifest drifted from uninterrupted run:\n got %s\nwant %s", gotManifest, wantManifest)
	}
	if gotText != wantText {
		t.Errorf("post-kill resumed report text drifted from uninterrupted run:\n got %s\nwant %s", gotText, wantText)
	}
}

// TestChaosChildProcess is the helper body TestChaosKillResume
// re-executes and SIGKILLs; it runs the reference matrix with a
// journal armed and is skipped in a normal test run.
func TestChaosChildProcess(t *testing.T) {
	dir := os.Getenv("ISACMP_CHAOS_DIR")
	if dir == "" {
		t.Skip("chaos child helper; spawned by TestChaosKillResume")
	}
	drun, err := durable.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex := durableEx()
	ex.Durable = drun
	if _, _, err := RunSuite(resilienceProgs(t), ex); err != nil {
		t.Fatal(err)
	}
	drun.Close()
}
