// Command perfbench is the repository benchmark. It runs one named
// workload — a seeded 20-cell matrix — for a fixed time and prints
// every metric with its unit, workload and sample count, then one
// JSON result line:
//
//	perfbench --workload repro-small --seed 0 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics through the public isacmp
// API; --trace 1 runs the traced harness and prints the per-layer
// metrics. Both check every cell's results before reporting. See
// README.md for the workloads; each per-layer row names the end-to-end
// metric it should move and on which workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"isacmp"
	"isacmp/perfbench/e2e"
	"isacmp/perfbench/layers"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload       string
	seed           int64
	seconds        float64
	trace          int
	tiny           bool
	traceOut       string
	updateExpected bool
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run: repro-small, fused-cp or sim-pathlen")
	fs.Int64Var(&o.seed, "seed", e2e.DefaultSeed, "input seed; the default reproduces the presets exactly")
	fs.Float64Var(&o.seconds, "seconds", 10, "measure for this long (whole matrix iterations, at least one)")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	fs.BoolVar(&o.tiny, "tiny", false, "use the Tiny presets (smoke testing)")
	fs.StringVar(&o.traceOut, "trace-out", "", "span file of the traced run (default .bench_build/traces/<workload>.json)")
	fs.BoolVar(&o.updateExpected, "update-expected", false, "rewrite e2e/expected/<workload>.json from this run (default seed only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := e2e.Lookup(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if o.updateExpected && (o.seed != e2e.DefaultSeed || o.tiny) {
		fmt.Fprintln(stderr, "perfbench: --update-expected needs the default seed and preset sizes")
		return 2
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", "traces", spec.Name+".json")
	}
	res, err := measure(spec, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the final JSON line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// series is one metric's samples within a run.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

func measure(spec e2e.Spec, o options, out io.Writer) (*result, error) {
	host := layers.Provenance()
	fp := host.Fingerprint
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%d workers=%d tiny=%t\n",
		spec.Name, o.seed, o.seconds, o.trace, spec.Workers(), o.tiny)
	fmt.Fprintf(out, "# host %q cpu=%d gomaxprocs=%d %s %s/%s governor=%q load=%.2f noise_median_s=%.6f noise_cv=%.4f\n",
		fp.CPUModel, fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion, fp.OS, fp.Arch, fp.Governor, fp.LoadAvg,
		host.Noise.MedianSeconds, host.Noise.CV)
	fmt.Fprintf(out, "# params %v\n", spec.Params(o.seed, o.tiny))

	progs, setup := e2e.Setup(spec, o.seed, o.tiny)
	check := e2e.NewChecker(spec, o.seed == e2e.DefaultSeed && !o.tiny && !o.updateExpected)
	s := series{}
	for _, t := range setup {
		s.add("setup_s", t)
		s.add("ir.gen_ms", t*1e3)
	}

	var first []e2e.CellRecord
	var lastTrace *layers.Run
	start := time.Now()
	for round := 0; ; round++ {
		it, err := e2e.RunOnce(spec, progs)
		if err != nil {
			return nil, err
		}
		if err := check.Check(it.Records); err != nil {
			return nil, err
		}
		if first == nil {
			first = it.Records
		}
		s.add("wall_s", it.Sample.WallSeconds)
		s.add("cpu_s", it.Sample.CPUSeconds)
		s.add("minst_per_s", it.Sample.MInstPerSecond())
		if o.trace == 1 {
			st := it.Sched
			s.add("sched.busy_frac", st.BusySeconds/(st.WallSeconds*float64(st.Workers)))
			s.add("sched.blocked_s", st.BlockedSeconds)
			s.add("sched.util_spread", valueRange(st.WorkerUtilization))
			if lastTrace, err = traceRound(spec, o, round, progs, check, s); err != nil {
				return nil, err
			}
		}
		elapsed := time.Since(start).Seconds()
		if o.trace == 1 {
			// A traced round runs the matrix three times; skipping a
			// round that would end past --seconds keeps the run short.
			if elapsed*float64(round+2)/float64(round+1) > o.seconds {
				break
			}
		} else if elapsed >= o.seconds {
			break
		}
	}
	peak := e2e.PeakRSSMB()
	check.Verify(progs)

	if o.updateExpected {
		data, err := e2e.EncodeExpected(first)
		if err != nil {
			return nil, err
		}
		path := filepath.Join("perfbench", "e2e", "expected", spec.Name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "# wrote %s\n", path)
	}

	res := &result{Attempted: check.Cells(), Metrics: map[string]value{}}
	failures := check.Failures()
	res.Failed = len(failures)
	res.Correct = res.Failed == 0
	for _, f := range failures {
		fmt.Fprintln(out, "# FAIL", f)
	}

	fmt.Fprintf(out, "%-28s %-8s %-12s %14s %14s %4s  %s\n", "metric", "unit", "workload", "median", "tail", "n", "moves")
	row := func(m metric, v float64, n int, tail string) {
		moves := ""
		if m.Moves != "" {
			moves = m.Moves + " on " + m.On
		}
		fmt.Fprintf(out, "%-28s %-8s %-12s %14.6g %14s %4d  %s\n", m.Name, m.Unit, spec.Name, v, tail, n, moves)
		res.Metrics[m.Name] = value{Value: v, Unit: m.Unit}
	}
	if o.trace == 0 {
		s.add("peak_rss_mb", peak)
		fmt.Fprintf(out, "# wall_s samples %.4f\n", s["wall_s"])
		for _, m := range endToEnd {
			xs := s[m.Name]
			row(m, median(xs), len(xs), tail(xs, m.Better))
		}
		frac := float64(res.Failed) / float64(max(1, res.Attempted))
		fmt.Fprintf(out, "%-28s %-8s %-12s %14.6g %14s %4d\n", "cells_failed_frac", "ratio", spec.Name, frac, "-", res.Attempted)
		return res, nil
	}

	s.add("trace.overhead_frac", median(s["traced_wall"])/median(s["untraced_wall"])-1)
	for _, m := range perLayer {
		xs, ok := s[m.Name]
		if !ok {
			return nil, fmt.Errorf("traced run produced no %s", m.Name)
		}
		row(m, median(xs), len(xs), "-")
	}
	if err := layers.WriteTrace(o.traceOut, lastTrace.TraceID, lastTrace.Spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# trace %s: %d spans, trace id %s\n", o.traceOut, len(lastTrace.Spans), lastTrace.TraceID)
	return res, nil
}

// traceRound runs the layer harness untraced and traced, in an order
// that alternates between rounds, checks both against the matrix
// results and records the traced run's per-layer metrics.
func traceRound(spec e2e.Spec, o options, round int, progs []*isacmp.Program, check *e2e.Checker, s series) (*layers.Run, error) {
	gen := func() []*isacmp.Program { return e2e.Programs(spec.Params(o.seed, o.tiny)) }
	var traced *layers.Run
	for i := 0; i < 2; i++ {
		on := (i+round)%2 == 1
		r, err := layers.Execute(spec, gen, on)
		if err != nil {
			return nil, err
		}
		if err := check.Check(e2e.Records(progs, r.Rows)); err != nil {
			return nil, err
		}
		if !on {
			s.add("untraced_wall", r.WallSeconds)
			continue
		}
		s.add("traced_wall", r.WallSeconds)
		for name, v := range r.Metrics() {
			s.add(name, v)
		}
		check.Fail(r.Guard())
		traced = r
	}
	return traced, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// tail reports the highest percentile with at least ten samples
// beyond it, on the side where the metric gets worse, or "-" when the
// run has too few samples for one.
func tail(xs []float64, better string) string {
	n := len(xs)
	if n <= 10 {
		return "-"
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	p := 100 * float64(n-10) / float64(n)
	v := ys[n-11]
	if better == "higher" {
		v = ys[10]
	}
	return fmt.Sprintf("p%.0f=%.4g", p, v)
}

// valueRange is the largest value minus the smallest.
func valueRange(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return hi - lo
}
