package e2e

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"syscall"
	"time"

	"isacmp"
)

// SetupReps is how many times a run generates its programs to time
// set-up; the reported set-up time is their median.
const SetupReps = 101

// Setup generates the workload's programs SetupReps times and returns
// the last set with every repetition's wall time in seconds.
func Setup(s Spec, seed int64, tiny bool) ([]*isacmp.Program, []float64) {
	var progs []*isacmp.Program
	times := make([]float64, SetupReps)
	for i := range times {
		start := time.Now()
		progs = Programs(s.Params(seed, tiny))
		times[i] = time.Since(start).Seconds()
	}
	return progs, times
}

// Sample is one timed matrix iteration.
type Sample struct {
	// WallSeconds runs from the RunMatrix call until the result table
	// is rendered; CPUSeconds is the process's user+system time over
	// the same interval.
	WallSeconds, CPUSeconds float64
	// Retired is the raw (pre-fusion) retired instruction count.
	Retired uint64
}

// MInstPerSecond is the iteration's raw retire rate in millions.
func (s Sample) MInstPerSecond() float64 { return float64(s.Retired) / s.WallSeconds / 1e6 }

// Iteration is one untimed-checkable matrix execution.
type Iteration struct {
	Sample  Sample
	Records []CellRecord
	Sched   *isacmp.SchedStats
}

// RunOnce executes the workload's matrix once and renders its table.
// The garbage collector runs first, outside the timed region, so every
// iteration starts from the same heap state.
func RunOnce(s Spec, progs []*isacmp.Program) (*Iteration, error) {
	runtime.GC()
	cpu0 := CPUSeconds()
	start := time.Now()
	rows, st, err := isacmp.RunMatrix(progs, s.Experiment())
	if err != nil {
		return nil, err
	}
	// The result table is one JSON line per cell.
	recs := Records(progs, rows)
	if err := json.NewEncoder(io.Discard).Encode(recs); err != nil {
		return nil, err
	}
	wall := time.Since(start).Seconds()
	cpu := CPUSeconds() - cpu0
	return &Iteration{
		Sample:  Sample{WallSeconds: wall, CPUSeconds: cpu, Retired: RetiredInstructions(recs)},
		Records: recs,
		Sched:   st,
	}, nil
}

// Checker accumulates per-cell failures across a run. A cell fails
// once, whichever check caught it first.
type Checker struct {
	spec Spec
	// expected selects the comparison with the committed records.
	expected bool
	ref      []string // canonical record of each cell
	names    []string // workload/target of each cell
	failed   map[int]string
}

// NewChecker starts the checks of one run. With expected set the
// first result set must also equal the workload's committed records,
// which describe the default seed at preset sizes.
func NewChecker(s Spec, expected bool) *Checker {
	return &Checker{spec: s, expected: expected, failed: map[int]string{}}
}

func (c *Checker) fail(cell int, format string, args ...any) {
	if _, ok := c.failed[cell]; !ok {
		c.failed[cell] = fmt.Sprintf(format, args...)
	}
}

// Check compares one result set with the reference. The first set
// becomes the reference of every later one after passing the
// invariants and, when enabled, the committed expected records.
func (c *Checker) Check(recs []CellRecord) error {
	if c.ref == nil {
		var want []CellRecord
		if c.expected {
			var err error
			if want, err = Expected(c.spec.Name); err != nil {
				return err
			}
			if len(want) != len(recs) {
				return fmt.Errorf("expected/%s.json has %d cells, the matrix %d", c.spec.Name, len(want), len(recs))
			}
		}
		c.ref = make([]string, len(recs))
		for i, r := range recs {
			c.ref[i] = Key(r)
			c.names = append(c.names, r.Workload+"/"+r.Target)
			if err := Invariants(c.spec, r); err != nil {
				c.fail(i, "%s: %v", c.names[i], err)
			}
			if want != nil && Key(want[i]) != c.ref[i] {
				c.fail(i, "%s: result differs from expected/%s.json", c.names[i], c.spec.Name)
			}
		}
		return nil
	}
	if len(recs) != len(c.ref) {
		return fmt.Errorf("matrix returned %d cells, want %d", len(recs), len(c.ref))
	}
	for i, r := range recs {
		if Key(r) != c.ref[i] {
			c.fail(i, "%s: result differs between runs of the same inputs", c.names[i])
		}
	}
	return nil
}

// Verify checks every cell's final memory against the IR interpreter.
// Call it after the first Check.
func (c *Checker) Verify(progs []*isacmp.Program) {
	for i, err := range Verify(progs, runtime.NumCPU()) {
		if err != nil {
			c.fail(i, "%s: verify: %v", c.names[i], err)
		}
	}
}

// Fail records per-cell errors from another check (nil entries pass),
// in cell order. Call it after the first Check.
func (c *Checker) Fail(errs []error) {
	for i, err := range errs {
		if err != nil {
			c.fail(i, "%s: %v", c.names[i], err)
		}
	}
}

// Cells is the number of cells checked.
func (c *Checker) Cells() int { return len(c.ref) }

// Failures lists the failed cells' first failure, in cell order.
func (c *Checker) Failures() []string {
	cells := make([]int, 0, len(c.failed))
	for i := range c.failed {
		cells = append(cells, i)
	}
	sort.Ints(cells)
	out := make([]string, len(cells))
	for k, i := range cells {
		out[k] = c.failed[i]
	}
	return out
}

// CPUSeconds is the process's user plus system CPU time so far.
func CPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// PeakRSSMB is the process's peak resident set size in MiB.
func PeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
