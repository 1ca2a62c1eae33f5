// Package obs is the zero-dependency telemetry layer of the serving stack:
// structured logging on log/slog, W3C trace-context propagation
// (traceparent), in-process spans with durations, and a per-request
// statistics carrier the engine's Observer hooks write through.
//
// The package deliberately owns no globals and starts no goroutines. A
// logger is built once (NewLogger) and handed down; trace identity and the
// request-stats accumulator travel in a context.Context; everything else
// is plain values. Nothing here touches the engine hot path — the engine
// only sees the Observer interface it defines itself, and a nil observer
// costs one pointer comparison.
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// Log formats accepted by NewLogger and the -log-format flags.
const (
	FormatJSON = "json"
	FormatText = "text"
)

// ParseLevel maps the -log-level flag values onto slog levels.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}

// NewLogger builds a leveled slog logger writing to w in the given format
// (FormatJSON or FormatText). JSON is the machine contract: one object per
// line,
// RFC 3339 time, "msg" discriminating the event kind — the schema the CI
// chaos gate parses.
func NewLogger(w io.Writer, level slog.Level, format string) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(strings.TrimSpace(format)) {
	case FormatJSON, "":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	case FormatText:
		return slog.New(slog.NewTextHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("obs: unknown log format %q (want json|text)", format)
}

// Nop returns a logger that discards everything — the nil-safety default
// callers use so logging sites never nil-check.
func Nop() *slog.Logger { return slog.New(slog.DiscardHandler) }
