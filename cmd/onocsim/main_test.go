package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"photonoc/internal/onocd"
)

// update regenerates the golden fixtures:
//
//	go test ./cmd/onocsim -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenCases pin the CLI's rendered output byte for byte: the uniform,
// hotspot and deadline-driven streaming scenarios, each seeded, so every
// per-transfer manager decision and every event is reproducible.
var goldenCases = []struct {
	name string
	args []string
}{
	{"uniform", []string{"-pattern", "uniform", "-messages", "2000", "-seed", "5"}},
	{"hotspot", []string{"-pattern", "hotspot", "-hotspot", "3", "-messages", "2000", "-seed", "5"}},
	{"streaming_deadline", []string{
		"-pattern", "streaming", "-deadline", "2", "-adaptive", "-idleoff", "-messages", "2000", "-seed", "5",
	}},
}

func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(context.Background(), tc.args, &out); err != nil {
				t.Fatalf("onocsim %s: %v", strings.Join(tc.args, " "), err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (regenerate with -update): %v", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output differs from %s (regenerate with -update if the change is intended)\n--- got ---\n%s\n--- want ---\n%s",
					path, out.String(), want)
			}
		})
	}
}

// TestRemoteMatchesLocal: a seeded simulation renders byte-identically
// whether the manager's evaluations resolve in process or over HTTP against
// a selfhosted onocd daemon (after the extra "remote engine …" banner) —
// the Client really is a drop-in core.Evaluator. The hotspot run decides
// every transfer by the objective alone; the streaming run adapts its
// scheme per transfer to each message's deadline, so every scheme of the
// roster crosses the evaluator seam.
func TestRemoteMatchesLocal(t *testing.T) {
	_, hs, base, err := onocd.ListenLocal(onocd.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()

	for _, tc := range []struct {
		name string
		args []string
	}{
		{"hotspot", []string{"-pattern", "hotspot", "-hotspot", "3", "-load", "0.3", "-messages", "300", "-seed", "11"}},
		{"streaming_deadline", []string{
			"-pattern", "streaming", "-deadline", "3", "-adaptive", "-idleoff",
			"-messages", "400", "-seed", "5", "-objective", "min-power",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var local, remote bytes.Buffer
			if err := run(context.Background(), tc.args, &local); err != nil {
				t.Fatalf("local: %v", err)
			}
			if err := run(context.Background(), append([]string{"-remote", base}, tc.args...), &remote); err != nil {
				t.Fatalf("remote: %v", err)
			}
			banner, rest, ok := strings.Cut(remote.String(), "\n")
			if !ok || !strings.HasPrefix(banner, "remote engine ") {
				t.Fatalf("remote output missing the engine banner:\n%s", remote.String())
			}
			if rest != local.String() {
				t.Errorf("remote output differs from local\n--- remote ---\n%s\n--- local ---\n%s", rest, local.String())
			}
		})
	}
}

// TestRunRejectsBadFlags: flag and domain errors surface as errors before
// any output, including an unreachable -remote daemon.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-pattern", "blast"},
		{"-objective", "min-everything"},
		{"-remote", "http://127.0.0.1:1"},
		{"-nosuchflag"},
		{"-pattern", "hotspot", "-hotspot", "3", "-hotfrac", "NaN"},
		{"-deadline", "NaN", "-adaptive"},
		{"-load", "NaN"},
		{"-ber", "NaN"},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("onocsim %s: no error", strings.Join(args, " "))
		}
		if out.Len() != 0 {
			t.Errorf("onocsim %s: wrote %d bytes before failing:\n%s",
				strings.Join(args, " "), out.Len(), out.String())
		}
	}
}
