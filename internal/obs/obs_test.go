package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
	"time"
)

// TestTraceparentRoundTrip: every generated span context serializes to a
// 55-byte version-00 header that parses back to the identical value.
func TestTraceparentRoundTrip(t *testing.T) {
	for i := 0; i < 100; i++ {
		sc := NewSpanContext()
		h := sc.Traceparent()
		if len(h) != 55 {
			t.Fatalf("traceparent %q: length %d, want 55", h, len(h))
		}
		if !strings.HasPrefix(h, "00-") {
			t.Fatalf("traceparent %q: not version 00", h)
		}
		if h != strings.ToLower(h) {
			t.Fatalf("traceparent %q: not lowercase", h)
		}
		got, err := ParseTraceparent(h)
		if err != nil {
			t.Fatalf("ParseTraceparent(%q): %v", h, err)
		}
		if got != sc {
			t.Fatalf("round trip %q: got %+v, want %+v", h, got, sc)
		}
	}
}

// TestParseTraceparentFixed pins the wire format against a hand-built
// reference vector (the W3C spec example).
func TestParseTraceparentFixed(t *testing.T) {
	const h = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	sc, err := ParseTraceparent(h)
	if err != nil {
		t.Fatal(err)
	}
	if sc.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace id %s", sc.TraceID)
	}
	if sc.SpanID.String() != "00f067aa0ba902b7" {
		t.Errorf("span id %s", sc.SpanID)
	}
	if sc.Flags != FlagSampled {
		t.Errorf("flags %x", sc.Flags)
	}
	if sc.Traceparent() != h {
		t.Errorf("re-render %q", sc.Traceparent())
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",          // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x",      // trailing garbage, no dash
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",       // uppercase hex
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // forbidden version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",       // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",       // zero span id
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",       // wrong separator
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra", // v00 with trailer
	}
	for _, h := range bad {
		if _, err := ParseTraceparent(h); err == nil {
			t.Errorf("ParseTraceparent(%q): accepted, want error", h)
		}
	}
	// Forward compatibility: a future version with a version-00-shaped
	// prefix and a trailer parses.
	if _, err := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-whatever"); err != nil {
		t.Errorf("future-version traceparent rejected: %v", err)
	}
}

// TestChildSpans: Child keeps the trace, renews the span; StartSpan chains
// parents through the context.
func TestChildSpans(t *testing.T) {
	root := NewSpanContext()
	child := root.Child()
	if child.TraceID != root.TraceID {
		t.Error("child changed trace id")
	}
	if child.SpanID == root.SpanID {
		t.Error("child kept parent span id")
	}

	ctx := ContextWithSpan(context.Background(), root)
	ctx2, sp := StartSpan(ctx, "op")
	if sp.SC.TraceID != root.TraceID || sp.Parent != root.SpanID {
		t.Errorf("span %+v: want trace %s parent %s", sp, root.TraceID, root.SpanID)
	}
	cur, ok := SpanFromContext(ctx2)
	if !ok || cur != sp.SC {
		t.Errorf("context span %+v, want %+v", cur, sp.SC)
	}
	if d := sp.End(); d < 0 || d > time.Minute {
		t.Errorf("implausible span duration %v", d)
	}

	// No parent: a fresh trace.
	_, orphan := StartSpan(context.Background(), "root")
	if !orphan.SC.IsValid() || !orphan.Parent.IsZero() {
		t.Errorf("orphan span %+v", orphan)
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "WARN": slog.LevelWarn,
		"warning": slog.LevelWarn, "error": slog.LevelError, "": slog.LevelInfo,
	}
	for in, want := range cases {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel(loud): accepted")
	}
}

// TestNewLoggerJSON: the JSON handler emits one parseable object per line
// with the bound attributes, and levels below the threshold are dropped.
func TestNewLoggerJSON(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewLogger(&buf, slog.LevelInfo, FormatJSON)
	if err != nil {
		t.Fatal(err)
	}
	l = l.With("trace_id", "abc123")
	l.Debug("dropped")
	l.Info("request", "route", "/v1/sweep", "status", 200)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("%d log lines, want 1 (debug filtered): %q", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("log line is not JSON: %v: %s", err, lines[0])
	}
	if rec["msg"] != "request" || rec["trace_id"] != "abc123" || rec["route"] != "/v1/sweep" {
		t.Errorf("log record %v", rec)
	}

	if _, err := NewLogger(&buf, slog.LevelInfo, "yaml"); err == nil {
		t.Error("NewLogger(yaml): accepted")
	}
	if _, err := NewLogger(&buf, slog.LevelInfo, FormatText); err != nil {
		t.Errorf("NewLogger(text): %v", err)
	}
}

// TestContextCarriers: stats ride the context; an absent carrier reads as
// nil.
func TestContextCarriers(t *testing.T) {
	if StatsFrom(context.Background()) != nil {
		t.Error("StatsFrom on empty context non-nil")
	}
	st := &RequestStats{}
	ctx := ContextWithStats(context.Background(), st)
	StatsFrom(ctx).ColdSolves.Add(2)
	StatsFrom(ctx).ColdSolveNS.Add(int64(3 * time.Millisecond))
	if st.ColdSolves.Load() != 2 || st.ColdSolveTime() != 3*time.Millisecond {
		t.Errorf("stats %d %v", st.ColdSolves.Load(), st.ColdSolveTime())
	}
}

// TestStatsLookupZeroAlloc: the context lookup the Observer hooks perform
// on every cache hit must not allocate.
func TestStatsLookupZeroAlloc(t *testing.T) {
	st := &RequestStats{}
	ctx := ContextWithStats(context.Background(), st)
	if allocs := testing.AllocsPerRun(200, func() {
		if s := StatsFrom(ctx); s != nil {
			s.CacheHits.Add(1)
		}
	}); allocs != 0 {
		t.Errorf("StatsFrom allocated %.1f times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		_ = StatsFrom(context.Background())
	}); allocs != 0 {
		t.Errorf("StatsFrom (absent) allocated %.1f times per call, want 0", allocs)
	}
}
