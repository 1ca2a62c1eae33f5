package mc

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"photonoc/internal/ecc"
)

// update regenerates testdata/mc.golden:
//
//	go test ./internal/mc -run TestMCGolden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestMCGolden pins the exact counts of both kernels: every extended-roster
// code plus a depth-4 interleaved H(7,4), at three flip probabilities,
// sliced and ForceScalar, on a fixed (Seed, Shards, Workers). Any change to
// the shard generators, the channel sampler, the scalar kernel's payload
// draws or a codec that moves a single count shows up here.
func TestMCGolden(t *testing.T) {
	il, err := ecc.NewInterleavedCode(ecc.MustHamming74(), 4)
	if err != nil {
		t.Fatal(err)
	}
	codes := append(ecc.ExtendedSchemes(), il)
	var sb strings.Builder
	for _, code := range codes {
		for _, p := range []float64{0, 1e-3, 3e-2} {
			for _, scalar := range []bool{false, true} {
				res, err := Run(context.Background(), code, p, Options{
					Frames: 1 << 13, Seed: 11, Shards: 4, Workers: 2, ForceScalar: scalar,
				})
				if err != nil {
					t.Fatalf("%s p=%g scalar=%v: %v", code.Name(), p, scalar, err)
				}
				fmt.Fprintf(&sb, "%s p=%g scalar=%v frames=%d bit_errors=%d frame_errors=%d detected=%d corrected=%d\n",
					code.Name(), p, scalar, res.Frames, res.BitErrors, res.FrameErrors, res.DetectedFrames, res.CorrectedBits)
			}
		}
	}
	compareGolden(t, "mc.golden", sb.String())
}

// compareGolden checks got against testdata/name line by line, or rewrites
// the file under -update.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (regenerate with -update): %v", err)
	}
	want := strings.Split(string(raw), "\n")
	have := strings.Split(got, "\n")
	if len(want) != len(have) {
		t.Fatalf("golden holds %d lines, the test produced %d", len(want), len(have))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, have[i], want[i])
		}
	}
}
