// Package e2e is the end-to-end half of the benchmark: it generates a
// workload's seeded programs, runs the matrix through the public
// isacmp API with every optional hook off, and checks the results.
// It imports nothing from isacmp/internal, so reshaping the internal
// packages never requires editing it.
package e2e

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"isacmp"
)

// DefaultSeed reproduces the workload presets exactly; every other
// seed reshapes each program's size parameters while keeping its
// dynamic instruction count within a few percent.
const DefaultSeed = 0

// Spec is one named benchmark workload: which analyses run over which
// programs, on how many workers.
type Spec struct {
	Name string
	// Repeat multiplies the work parameter of every builder (STREAM
	// ntimes, CloverLeaf steps, miniBUDE poses, LBM iterations,
	// Minisweep angles) over the Small preset.
	Repeat int
	// Analyses holds the selected analyses and the fusion pass; every
	// other field, hooks included, stays zero (off).
	Analyses isacmp.MatrixExperiment
	// AllCPUs runs the matrix on one worker per CPU; otherwise on one.
	AllCPUs bool
}

// fusionBoth is -fusion both: every rule on both architectures. The
// spec is a constant the parser accepts, so the error is always nil.
var fusionBoth, _ = isacmp.ParseFusionSpec("both")

// Specs lists the benchmark's workloads. Each stresses a different
// layer, so a change to one layer has a workload that exercises it and
// one that bypasses it.
var Specs = []Spec{
	{
		// The isacmp all reference run of the ROADMAP: windowed CP is
		// most of the work, and only this workload uses the sched
		// pool, the fan-out and the sharded windowed CP.
		Name:     "repro-small",
		Repeat:   1,
		Analyses: isacmp.MatrixExperiment{PathLength: true, CritPath: true, Scaled: true, Windowed: true},
		AllCPUs:  true,
	},
	{
		// Fusion and the whole-trace CP trackers do most of the work,
		// on fused events; there is no windowed CP. Small is doubled
		// so one matrix takes seconds.
		Name:     "fused-cp",
		Repeat:   2,
		Analyses: isacmp.MatrixExperiment{CritPath: true, Scaled: true, Fusion: fusionBoth},
	},
	{
		// Simulation is most of the work: the gain workload for a
		// simulator change and the no-change workload for an analysis
		// change. A per-event sink cost shows here first.
		Name:     "sim-pathlen",
		Repeat:   6,
		Analyses: isacmp.MatrixExperiment{PathLength: true, Mix: true},
	},
}

// Lookup returns the named workload spec.
func Lookup(name string) (Spec, error) {
	for _, s := range Specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown workload %q", name)
}

// Workers is the matrix worker count, never above the CPU count.
func (s Spec) Workers() int {
	if s.AllCPUs {
		return runtime.NumCPU()
	}
	return 1
}

// Experiment is the RunMatrix configuration of the workload: the
// selected analyses on the workload's workers, with journal, status
// board, ledger, profiler and every other hook off.
func (s Spec) Experiment() isacmp.MatrixExperiment {
	ex := s.Analyses
	ex.Parallel = s.Workers()
	return ex
}

// builder is one paper benchmark: its public isacmp constructor, its
// preset size parameters and a seeded reshape that keeps the amount
// of work roughly constant.
type builder struct {
	build       func(p []int) *isacmp.Program
	small, tiny []int
	// work is the index of the parameter that scales work linearly.
	work    int
	reshape func(p []int, r *rand.Rand) []int
}

var builders = []builder{
	{
		build: func(p []int) *isacmp.Program { return isacmp.STREAM(p[0], p[1]) },
		small: []int{20000, 4}, tiny: []int{64, 2}, work: 1,
		// Trade repetitions for array length: n*ntimes stays fixed.
		reshape: func(p []int, r *rand.Rand) []int {
			lo := max(1, int(math.Ceil(float64(p[1])*2/3)))
			hi := max(lo, p[1]*3/2)
			t := lo + r.Intn(hi-lo+1)
			return []int{roundDiv(p[0]*p[1], t), t}
		},
	},
	{
		build: func(p []int) *isacmp.Program { return isacmp.CloverLeaf(p[0], p[1], p[2]) },
		small: []int{48, 48, 4}, tiny: []int{8, 8, 2}, work: 2,
		reshape: func(p []int, r *rand.Rand) []int {
			nx, ny := trade(p[0], p[1], r)
			return []int{nx, ny, p[2]}
		},
	},
	{
		build: func(p []int) *isacmp.Program { return isacmp.MiniBUDE(p[0], p[1], p[2]) },
		small: []int{16, 26, 100}, tiny: []int{4, 6, 8}, work: 0,
		// Poses against protein atoms; the ligand keeps its 26 atoms.
		reshape: func(p []int, r *rand.Rand) []int {
			poses, pro := trade(p[0], p[2], r)
			return []int{poses, p[1], pro}
		},
	},
	{
		build: func(p []int) *isacmp.Program { return isacmp.LBM(p[0], p[1], p[2]) },
		small: []int{32, 32, 10}, tiny: []int{8, 8, 2}, work: 2,
		reshape: func(p []int, r *rand.Rand) []int {
			nx, ny := trade(p[0], p[1], r)
			return []int{nx, ny, p[2]}
		},
	},
	{
		build: func(p []int) *isacmp.Program { return isacmp.Minisweep(p[0], p[1], p[2], p[3]) },
		small: []int{8, 8, 8, 8}, tiny: []int{4, 4, 4, 4}, work: 3,
		// Move a factor of two between two grid axes: the sweep's
		// wavefront shape changes, the cell count does not.
		reshape: func(p []int, r *rand.Rand) []int {
			q := append([]int(nil), p...)
			from, to := r.Intn(3), r.Intn(3)
			if from != to && q[from]%2 == 0 && q[from] >= 4 {
				q[from] /= 2
				q[to] *= 2
			}
			return q
		},
	},
}

// trade rescales a by a seeded factor in [2/3, 3/2] and b inversely,
// keeping a*b (and so the work of a loop nest over both) nearly fixed.
// Both stay at least 4, which every builder's stencil accepts.
func trade(a, b int, r *rand.Rand) (int, int) {
	f := math.Exp((r.Float64()*2 - 1) * math.Log(1.5))
	na := max(4, int(math.Round(float64(a)*f)))
	nb := max(4, roundDiv(a*b, na))
	return na, nb
}

func roundDiv(a, b int) int { return int(math.Round(float64(a) / float64(b))) }

// Params returns each builder's size parameters for the workload at
// the given seed: the Small (or, with tiny, the Tiny) preset with its
// work parameter multiplied by Repeat, reshaped unless seed is
// DefaultSeed.
func (s Spec) Params(seed int64, tiny bool) [][]int {
	r := rand.New(rand.NewSource(seed))
	out := make([][]int, len(builders))
	for i, b := range builders {
		p := append([]int(nil), b.small...)
		if tiny {
			p = append([]int(nil), b.tiny...)
		}
		p[b.work] *= s.Repeat
		if seed != DefaultSeed {
			p = b.reshape(p, r)
		}
		out[i] = p
	}
	return out
}

// Programs builds the workload's five programs from their parameters.
func Programs(params [][]int) []*isacmp.Program {
	progs := make([]*isacmp.Program, len(builders))
	for i, b := range builders {
		progs[i] = b.build(params[i])
	}
	return progs
}
