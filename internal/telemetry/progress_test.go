package telemetry_test

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"strings"
	"testing"

	"isacmp/internal/fusion"
	"isacmp/internal/ir"
	"isacmp/internal/report"
	"isacmp/internal/workloads"
)

// TestProgressHeartbeat runs the tiny stream cells under -fusion both
// with the heartbeat routed through a JSON logger. Each cell's final
// line must report the core's architectural retired count (the row's
// path length, not the fused macro-op count) and a rate measured from
// the start of the run, not from its last event.
func TestProgressHeartbeat(t *testing.T) {
	cfg, err := fusion.ParseSpec("both")
	if err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	ex := report.Experiment{
		PathLength: true, Parallel: 1, Fusion: cfg,
		Progress: io.Discard,
		Log:      slog.New(slog.NewJSONHandler(&logs, nil)),
	}
	all, _, err := report.RunSuite([]*ir.Program{workloads.ByName("stream", workloads.Tiny)}, ex)
	if err != nil {
		t.Fatal(err)
	}
	type line struct {
		Msg     string  `json:"msg"`
		Label   string  `json:"label"`
		Retired uint64  `json:"retired"`
		MIPS    float64 `json:"mips"`
	}
	beats := map[string]line{}
	for _, s := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var l line
		if err := json.Unmarshal([]byte(s), &l); err != nil {
			t.Fatalf("log line %q: %v", s, err)
		}
		if l.Msg == "progress" {
			beats[l.Label] = l
		}
	}
	for _, row := range all[0] {
		label := "stream " + row.Target.String()
		l, ok := beats[label]
		if !ok {
			t.Fatalf("no heartbeat for %s in:\n%s", label, logs.String())
		}
		if row.Fusion == nil || row.Fusion.EventsOut >= row.Fusion.EventsIn {
			t.Fatalf("%s: fusion fused nothing (%+v); the test needs a fused stream", label, row.Fusion)
		}
		if l.Retired != row.PathLen {
			t.Errorf("%s: heartbeat retired = %d, want the path length %d (fused events: %d)",
				label, l.Retired, row.PathLen, row.Fusion.EventsOut)
		}
		if l.MIPS <= 0 || l.MIPS >= 10000 {
			t.Errorf("%s: heartbeat rate = %.0f Minst/s, want a rate measured over the run", label, l.MIPS)
		}
	}
}
