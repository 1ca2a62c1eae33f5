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
//	go test ./cmd/onocnet -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenCases pin the CLI's rendered tables byte for byte. Every case is
// fully deterministic: the analytic aggregates are worker-count
// independent, the simulator is seeded, and all map-ordered output is
// sorted before rendering.
var goldenCases = []struct {
	name string
	args []string
}{
	{"bus12_links", []string{"-topology", "bus", "-tiles", "12", "-ber", "1e-11", "-links"}},
	{"ring8_sweep", []string{"-topology", "ring", "-tiles", "8", "-sweep", "1e-12,1e-9", "-points", "3"}},
	{"mesh16_hotspot_sim", []string{
		"-topology", "mesh", "-tiles", "16", "-pattern", "hotspot", "-hotspot", "5",
		"-sim", "-messages", "4000", "-seed", "7", "-dac",
	}},
}

func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(context.Background(), tc.args, &out); err != nil {
				t.Fatalf("onocnet %s: %v", strings.Join(tc.args, " "), err)
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

// TestRemoteMatchesLocal: every golden case run against a selfhosted onocd
// daemon renders byte-identically to the in-process run (after the extra
// "remote engine …" banner) — the -remote flag changes where the solves
// happen, never what is reported. Covers the single-point + per-link,
// streaming-sweep and simulation paths.
func TestRemoteMatchesLocal(t *testing.T) {
	_, hs, base, err := onocd.ListenLocal(onocd.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()

	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			var local, remote bytes.Buffer
			if err := run(context.Background(), tc.args, &local); err != nil {
				t.Fatalf("local: %v", err)
			}
			args := append([]string{"-remote", base}, tc.args...)
			if err := run(context.Background(), args, &remote); err != nil {
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

// TestRemoteUnreachable: a dead daemon is an error before any output.
func TestRemoteUnreachable(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-remote", "http://127.0.0.1:1", "-tiles", "4"}, &out); err == nil {
		t.Fatal("no error against an unreachable daemon")
	}
	if out.Len() != 0 {
		t.Errorf("wrote %d bytes before failing:\n%s", out.Len(), out.String())
	}
}

// TestRunRejectsBadFlags: flag-level and domain-level errors surface as
// errors, not panics or exits.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-topology", "torus"},
		{"-pattern", "blast"},
		{"-pattern", "hotspot", "-hotfrac", "NaN"},
		{"-objective", "min-everything"},
		{"-sweep", "1e-9"},
		{"-sweep", "1e-12,1e-9", "-sim"},
		{"-sweep", "-1,1e-9"},
		{"-sweep", "1e-12,1e-9", "-points", "1"},
		{"-sim", "-messages", "-5"},
		{"-sim", "-qmax", "-2"},
		{"-rate", "-1"},
		{"-tiles", "1"},
		{"-nosuchflag"},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("onocnet %s: no error", strings.Join(args, " "))
		}
		// A failed invocation must not leave a plausible-looking partial
		// result on stdout.
		if out.Len() != 0 {
			t.Errorf("onocnet %s: wrote %d bytes to stdout before failing:\n%s",
				strings.Join(args, " "), out.Len(), out.String())
		}
	}
}
