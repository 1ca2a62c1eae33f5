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
//	go test ./cmd/onoctune -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenCases pin the CLI's rendered output byte for byte. Every case is
// fully deterministic: campaigns are seeded and worker-count independent.
// The first case is the ISSUE's acceptance campaign (8 particles × 10
// generations over the default bus/ring/mesh × roster × DAC space).
var goldenCases = []struct {
	name string
	args []string
}{
	{"acceptance8x10", []string{"-ber", "1e-11", "-particles", "8", "-generations", "10", "-seed", "7"}},
	{"busring_json", []string{
		"-ber", "1e-11", "-particles", "4", "-generations", "3", "-seed", "7",
		"-kinds", "bus,ring", "-tiles", "8,12", "-dacbits", "0,6", "-json",
	}},
	{"hotspot_small", []string{
		"-ber", "1e-9", "-particles", "4", "-generations", "2", "-seed", "3",
		"-pattern", "hotspot", "-hotspot", "1", "-tiles", "8",
	}},
}

func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(context.Background(), tc.args, &out); err != nil {
				t.Fatalf("onoctune %s: %v", strings.Join(tc.args, " "), err)
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
// "remote engine …" banner) — the -remote flag changes where the campaign
// runs, never what is reported. JSON cases carry no banner at all, so they
// must match exactly.
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
			got := remote.String()
			if !strings.Contains(strings.Join(tc.args, " "), "-json") {
				banner, rest, ok := strings.Cut(got, "\n")
				if !ok || !strings.HasPrefix(banner, "remote engine ") {
					t.Fatalf("remote output missing the engine banner:\n%s", got)
				}
				got = rest
			}
			if got != local.String() {
				t.Errorf("remote output differs from local\n--- remote ---\n%s\n--- local ---\n%s", got, local.String())
			}
		})
	}
}

// TestRemoteUnreachable: a dead daemon is an error before any output.
func TestRemoteUnreachable(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-remote", "http://127.0.0.1:1"}, &out); err == nil {
		t.Fatal("no error against an unreachable daemon")
	}
	if out.Len() != 0 {
		t.Errorf("wrote %d bytes before failing:\n%s", out.Len(), out.String())
	}
}

// TestRunRejectsBadFlags: flag-level and domain-level errors surface as
// errors before any output, not panics or exits.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-ber", "0"},
		{"-ber", "0.7"},
		{"-particles", "-1"},
		{"-kinds", "torus"},
		{"-kinds", "bus,,ring"},
		{"-tiles", "eight"},
		{"-tiles", "1"},
		{"-dacbits", "99"},
		{"-rosters", "NoSuchCode"},
		{"-rosters", "H(7,4);;"},
		{"-pattern", "blast"},
		{"-pattern", "hotspot", "-hotfrac", "NaN"},
		{"-objective", "min-everything"},
		{"-nosuchflag"},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("onoctune %s: no error", strings.Join(args, " "))
		}
		// A failed invocation must not leave a plausible-looking partial
		// result on stdout.
		if out.Len() != 0 {
			t.Errorf("onoctune %s: wrote %d bytes to stdout before failing:\n%s",
				strings.Join(args, " "), out.Len(), out.String())
		}
	}
}

// TestRostersFlag: an explicit roster restriction reaches the campaign —
// every front point's roster is one of the requested subsets.
func TestRostersFlag(t *testing.T) {
	var out bytes.Buffer
	args := []string{
		"-ber", "1e-11", "-particles", "4", "-generations", "2", "-seed", "5",
		"-kinds", "bus", "-tiles", "8", "-rosters", "H(7,4)|H(7,4);H(71,64)",
	}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("onoctune %s: %v", strings.Join(args, " "), err)
	}
	s := out.String()
	if !strings.Contains(s, "Pareto front") {
		t.Fatalf("no front rendered:\n%s", s)
	}
	if strings.Contains(s, "w/o ECC") {
		t.Errorf("front includes a scheme outside the requested rosters:\n%s", s)
	}
}
