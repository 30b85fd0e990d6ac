package report

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"isacmp/internal/durable"
)

// CLI-side durability and interrupt plumbing for the cell-running
// subcommands of cmd/isacmp (`isacmp <subcommand>`).

// ArmDurability opens the crash-safety handle that a CLI's
// -durable-dir / -resume flags ask for. A non-empty resumeDir wins
// and replays (then compacts) the journal there, so already-retired
// cells are served instead of recomputed; otherwise durableDir starts
// a fresh journal — the content cache in the directory persists
// either way and still serves identical cells. Returns nil when
// neither is set. The handle's warnings are routed through log.
func ArmDurability(durableDir, resumeDir string, log *slog.Logger) (*durable.Run, error) {
	dir, resume := durableDir, false
	if resumeDir != "" {
		dir, resume = resumeDir, true
	}
	if dir == "" {
		return nil, nil
	}
	var (
		run *durable.Run
		err error
	)
	if resume {
		run, err = durable.Resume(dir, nil)
	} else {
		run, err = durable.Open(dir, nil)
	}
	if err != nil {
		return nil, err
	}
	if log != nil {
		run.Warn = func(format string, args ...any) {
			log.Warn("durable: " + fmt.Sprintf(format, args...))
		}
		if resume {
			st := run.Stats()
			log.Info("resuming from journal", "dir", dir,
				"journal_records", st.Records, "torn_tail", st.TornTail)
		}
	}
	return run, nil
}

// InstallDrainHandler arms the two-stage interrupt contract for a
// matrix run. The returned contexts are cancelled in order: drain on
// the first SIGINT/SIGTERM (no new cells start; in-flight cells
// finish and journal; drained cells become FAILED(deadline) rows, so
// the process writes a valid partial manifest and exits ExitPartial),
// hard on the second (in-flight cells are reaped). After the second
// signal the handler detaches, so a third signal kills the process
// with the default disposition. Wire the results to Experiment.Ctx
// and Experiment.Drain.
func InstallDrainHandler(log *slog.Logger) (hard, drain context.Context) {
	hardCtx, hardCancel := context.WithCancel(context.Background())
	drainCtx, drainCancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-ch
		if log != nil {
			log.Warn("signal: draining — in-flight cells finish and journal; interrupt again to abort them",
				"signal", s.String())
		}
		drainCancel()
		s = <-ch
		if log != nil {
			log.Warn("signal: aborting in-flight cells", "signal", s.String())
		}
		hardCancel()
		signal.Stop(ch)
	}()
	return hardCtx, drainCtx
}
