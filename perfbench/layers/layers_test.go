package layers

import "testing"

// TestSelfTimes checks self time against a hand-built span tree: a
// cell holding a compile call and a fusion pass that delivers to one
// sink.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Name: spanCell, Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: spanCompile, Start: 10, End: 20},
		{ID: 2, Parent: 0, Name: spanFusion, Start: 30, End: 80},
		{ID: 3, Parent: 2, Name: "core.critpath", Start: 40, End: 60},
	}
	self := map[string]int64{}
	if root := selfTimes(spans, self); root != 100 {
		t.Errorf("root time %d, want 100", root)
	}
	want := map[string]int64{spanCell: 40, spanCompile: 10, spanFusion: 30, "core.critpath": 20}
	for name, ns := range want {
		if self[name] != ns {
			t.Errorf("%s self time %d, want %d", name, self[name], ns)
		}
	}
}

// TestGuard checks the batched-path guard on both sides of its window.
func TestGuard(t *testing.T) {
	for _, tc := range []struct {
		retired, calls uint64
		ok             bool
	}{
		{10000, 3, true},  // ⌈10000/4096⌉ calls
		{10000, 4, true},  // plus the call that reports done
		{8192, 2, true},   // exact multiple
		{10000, 0, false}, // per-instruction Step loop
		{10000, 5, false},
		{10000, 10000, false},
	} {
		r := &Run{Cells: []CellCounts{{Retired: tc.retired, StepNCalls: tc.calls}}}
		if err := r.Guard()[0]; (err == nil) != tc.ok {
			t.Errorf("retired %d, %d calls: error %v, want ok=%t", tc.retired, tc.calls, err, tc.ok)
		}
	}
}
