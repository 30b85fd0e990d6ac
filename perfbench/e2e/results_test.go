package e2e

import "testing"

// TestInvariants checks that each invariant rejects a record that
// breaks it and accepts the consistent one.
func TestInvariants(t *testing.T) {
	repro, _ := Lookup("repro-small")
	fused, _ := Lookup("fused-cp")
	sim, _ := Lookup("sim-pathlen")
	good := CellRecord{
		PathLen: 100, Kernels: []NamedCount{{"k", 90}}, Other: 10, CP: 20,
		Windows: []WindowPoint{{Size: 4, MeanCP: 3.5}, {Size: 64, MeanCP: 19}},
	}
	for _, tc := range []struct {
		name string
		spec Spec
		rec  func(r CellRecord) CellRecord
		ok   bool
	}{
		{"consistent", repro, func(r CellRecord) CellRecord { return r }, true},
		{"failed cell", repro, func(r CellRecord) CellRecord { r.Error = "x"; return r }, false},
		{"kernel sum", repro, func(r CellRecord) CellRecord { r.Other = 11; return r }, false},
		{"CP above path length", repro, func(r CellRecord) CellRecord { r.CP = 101; return r }, false},
		{"window above W", repro, func(r CellRecord) CellRecord { r.Windows[0].MeanCP = 4.5; return r }, false},
		{"window above CP", repro, func(r CellRecord) CellRecord { r.Windows[1].MeanCP = 21; return r }, false},
		{"fused", fused, func(r CellRecord) CellRecord { r.FusedPathLen = 90; return r }, true},
		{"fused above raw", fused, func(r CellRecord) CellRecord { r.FusedPathLen = 101; return r }, false},
		{"CP above fused length", fused, func(r CellRecord) CellRecord { r.FusedPathLen = 19; return r }, false},
		{"mix sum", sim, func(r CellRecord) CellRecord { r.Mix = []NamedCount{{"g", 99}}; return r }, false},
	} {
		r := good
		r.Windows = append([]WindowPoint(nil), good.Windows...)
		if err := Invariants(tc.spec, tc.rec(r)); (err == nil) != tc.ok {
			t.Errorf("%s: error %v, want ok=%t", tc.name, err, tc.ok)
		}
	}
}
