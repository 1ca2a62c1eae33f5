package serdes

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"photonoc/internal/ecc"
	"photonoc/internal/noise"
)

// update regenerates testdata/pipeline.golden:
//
//	go test ./internal/serdes -run TestPipelineGolden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestPipelineGolden pins every PipelineStats count of seeded RunPipeline
// runs for H(7,4) and H(71,64), under the default BSC and under the OOK
// decision channel of internal/noise sharing the pipeline's RNG. A change
// to the drain path, the channel's draws or a codec that moves a single
// count shows up here.
func TestPipelineGolden(t *testing.T) {
	var sb strings.Builder
	for _, code := range []ecc.Code{ecc.MustHamming74(), ecc.MustHamming7164()} {
		for _, channel := range []string{"bsc", "ook"} {
			rng := rand.New(rand.NewSource(81))
			cfg := PipelineConfig{Code: code, NData: 64, Lanes: 16, RawBER: 1e-2, Rng: rng}
			if channel == "ook" {
				ch, err := noise.NewOOKChannel(3, rng)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Channel = ch.Transmit
			}
			s, err := RunPipeline(cfg, 2000)
			if err != nil {
				t.Fatalf("%s %s: %v", code.Name(), channel, err)
			}
			fmt.Fprintf(&sb, "%s %s words=%d payload=%d coded=%d injected=%d residual=%d corrected=%d detected=%d word_errors=%d\n",
				code.Name(), channel, s.Words, s.PayloadBits, s.CodedBits, s.InjectedErrors,
				s.ResidualBitErrors, s.CorrectedBits, s.DetectedBlocks, s.WordErrors)
		}
	}
	path := filepath.Join("testdata", "pipeline.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (regenerate with -update): %v", err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("pipeline counts moved:\n got:\n%s want:\n%s", got, want)
	}
}
