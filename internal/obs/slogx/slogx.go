// Package slogx builds the structured loggers of the observability
// layer on the stdlib log/slog backend: a -log-level / -log-format
// flag vocabulary shared by every CLI, a JSONL handler for machine
// consumption, a no-op logger so library code never nil-checks, and
// the cell-attribute convention (run_id, workload, target, attempt)
// that makes every log line of a matrix run joinable against the
// manifest and the /statusz view.
package slogx

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
)

// Attribute keys every cell-scoped log line carries. They match the
// manifest `failures` block fields so logs, post-mortems and manifests
// join on the same vocabulary.
const (
	KeyRunID    = "run_id"
	KeyWorkload = "workload"
	KeyTarget   = "target"
	KeyAttempt  = "attempt"
)

// ParseLevel maps the -log-level flag vocabulary onto slog levels.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("slogx: unknown log level %q (want debug, info, warn or error)", s)
}

// New builds a leveled logger writing to w. format is "text" (human
// terminal lines) or "json" (one JSON object per line — JSONL, the
// structured form log shippers ingest). Unknown levels and formats are
// usage errors so the CLIs can exit with their usage code.
func New(w io.Writer, level, format string) (*slog.Logger, error) {
	lv, err := ParseLevel(level)
	if err != nil {
		return nil, err
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json", "jsonl":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("slogx: unknown log format %q (want text or json)", format)
}

// nopHandler discards every record. Implemented here rather than via
// slog.DiscardHandler to stay within the module's language version.
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

var nop = slog.New(nopHandler{})

// Nop returns a logger that discards everything. Library code uses it
// as the nil-default so hot paths never nil-check a logger.
func Nop() *slog.Logger { return nop }

// OrNop returns l, or the no-op logger when l is nil.
func OrNop(l *slog.Logger) *slog.Logger {
	if l == nil {
		return nop
	}
	return l
}

// WithCell scopes a logger to one matrix cell: every line it emits
// carries the workload, target and attempt attributes (run_id is
// attached once at logger construction by the CLI).
func WithCell(l *slog.Logger, workload, target string, attempt int) *slog.Logger {
	return OrNop(l).With(KeyWorkload, workload, KeyTarget, target, KeyAttempt, attempt)
}

// IsTerminal reports whether f is attached to a terminal. The progress
// heartbeat uses it to keep its periodic lines out of piped or
// redirected output.
func IsTerminal(f *os.File) bool {
	if f == nil {
		return false
	}
	st, err := f.Stat()
	if err != nil {
		return false
	}
	return st.Mode()&os.ModeCharDevice != 0
}
