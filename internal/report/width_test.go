package report

import (
	"testing"

	"isacmp/internal/cc"
	"isacmp/internal/core"
)

// TestCellShardWidth pins how a cell's windowed CP is chosen from the
// worker budget: a matrix with at least as many cells as workers runs
// every cell sequentially; a lone cell (RunCompiled) with two workers
// gets the sharded implementation only for a configuration the
// single-pass tracker does not cover (here a stride other than W/2),
// and the tracker otherwise.
func TestCellShardWidth(t *testing.T) {
	compiled, err := cc.Compile(tinyProgram(), cc.Targets()[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name            string
		parallel, cells int
		stride          int
		shards          int
		sharded         bool // ShardedWindowedCP, else WindowedCritPath
	}{
		{"matrix, cells > workers", 2, 20, 3, 1, false},
		{"matrix, cells == workers", 2, 2, 3, 1, false},
		{"one cell, one worker", 1, 1, 3, 1, false},
		{"one cell, two workers", 2, 1, 3, 2, true},
		{"two cells, five workers", 5, 2, 3, 2, true},
		{"one cell, two workers, paper stride", 2, 1, 0, 2, false},
		{"two cells, five workers, paper stride", 5, 2, 0, 2, false},
	} {
		ex := Experiment{Windowed: true, Parallel: tc.parallel, WindowStride: tc.stride}
		shards := ex.cellShards(tc.cells)
		if shards != tc.shards {
			t.Errorf("%s: %d shards per cell, want %d", tc.name, shards, tc.shards)
		}
		p := newPlan(ex, compiled, shards, nil)
		switch w := p.win.(type) {
		case *core.WindowedCritPath:
			if tc.sharded {
				t.Errorf("%s: plan built the sequential WindowedCritPath, want ShardedWindowedCP", tc.name)
			}
			if w.SinglePass() != (tc.stride == 0) {
				t.Errorf("%s: single pass = %v at stride %d", tc.name, w.SinglePass(), tc.stride)
			}
		case *core.ShardedWindowedCP:
			w.Results() // stops the shard goroutines
			if !tc.sharded {
				t.Errorf("%s: plan built ShardedWindowedCP, want the sequential WindowedCritPath", tc.name)
			}
		default:
			t.Fatalf("%s: windowed analysis is %T", tc.name, p.win)
		}
	}
}
