package report

import (
	"testing"

	"isacmp/internal/cc"
	"isacmp/internal/core"
)

// TestCellShardWidth pins how a cell's windowed CP is chosen from the
// worker budget: a matrix with at least as many cells as workers runs
// every cell sequentially, while a lone cell (RunCompiled) with two
// workers gets the sharded implementation.
func TestCellShardWidth(t *testing.T) {
	compiled, err := cc.Compile(tinyProgram(), cc.Targets()[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name            string
		parallel, cells int
		shards          int // 1 = sequential WindowedCritPath
	}{
		{"matrix, cells > workers", 2, 20, 1},
		{"matrix, cells == workers", 2, 2, 1},
		{"one cell, one worker", 1, 1, 1},
		{"one cell, two workers", 2, 1, 2},
		{"two cells, five workers", 5, 2, 2},
	} {
		ex := Experiment{Windowed: true, Parallel: tc.parallel}
		shards := ex.cellShards(tc.cells)
		if shards != tc.shards {
			t.Errorf("%s: %d shards per cell, want %d", tc.name, shards, tc.shards)
		}
		p := newPlan(ex, compiled, shards, nil)
		switch w := p.win.(type) {
		case *core.WindowedCritPath:
			if tc.shards > 1 {
				t.Errorf("%s: plan built the sequential WindowedCritPath, want ShardedWindowedCP", tc.name)
			}
		case *core.ShardedWindowedCP:
			w.Results() // stops the shard goroutines
			if tc.shards == 1 {
				t.Errorf("%s: plan built ShardedWindowedCP, want the sequential WindowedCritPath", tc.name)
			}
		default:
			t.Fatalf("%s: windowed analysis is %T", tc.name, p.win)
		}
	}
}
