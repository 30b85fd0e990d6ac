package telemetry

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"isacmp/internal/obs/slogx"
)

// Progress is a per-cell heartbeat for long -scale paper runs: fed the
// cell's architectural retired count once per batch (the core's
// OnBatch hook), it prints the count and the retire rate at most once
// per progressInterval, and a final line from Finish. It is an
// observer, not an analysis sink, so it never sees the fused stream.
type Progress struct {
	// W receives the heartbeat lines (typically os.Stderr). Ignored
	// when Log is set.
	W io.Writer
	// Log, when set, routes heartbeats through the structured logger
	// as Info records instead of raw writes to W, so -log-level=error
	// silences them and machine log consumers get attrs, not prose.
	Log *slog.Logger
	// Label prefixes every line (e.g. "stream AArch64/gcc12").
	Label string

	// finalOnly suppresses the periodic lines, keeping only Finish's:
	// set unless W is a terminal, so piped or redirected runs are not
	// spammed with interactive progress.
	finalOnly bool
	retired   uint64
	start     time.Time
	lastPrint time.Time
}

// progressInterval is the minimum time between periodic lines.
const progressInterval = 2 * time.Second

// NewProgress returns a heartbeat writing to w. Its clock starts now,
// so build it just before the run it reports on.
func NewProgress(w io.Writer, label string) *Progress {
	f, ok := w.(*os.File)
	now := time.Now()
	return &Progress{
		W: w, Label: label,
		finalOnly: !ok || !slogx.IsTerminal(f),
		start:     now, lastPrint: now,
	}
}

// Observe records the run's retired total so far and heartbeats when
// the interval has passed: one clock read per call.
func (p *Progress) Observe(retired uint64) {
	p.retired = retired
	if p.finalOnly {
		return
	}
	if now := time.Now(); now.Sub(p.lastPrint) >= progressInterval {
		p.lastPrint = now
		p.print(now)
	}
}

// Finish prints a final line with the end-of-run totals.
func (p *Progress) Finish() { p.print(time.Now()) }

func (p *Progress) print(now time.Time) {
	elapsed := now.Sub(p.start)
	rate := RateMIPS(p.retired, elapsed)
	if p.Log != nil {
		p.Log.Info("progress",
			"label", p.Label,
			"retired", p.retired,
			"mips", rate,
			"elapsed", elapsed.Truncate(time.Millisecond).String())
		return
	}
	if p.W == nil {
		return
	}
	fmt.Fprintf(p.W, "%s: %d retired, %.1f Minst/s, %s elapsed\n",
		p.Label, p.retired, rate, elapsed.Truncate(time.Millisecond))
}
