package core

import (
	"strings"
	"testing"

	"photonoc/internal/ecc"
)

func TestConfigSaveLoadRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channel.Waveguide.LengthCM = 8 // a study-specific tweak
	var sb strings.Builder
	if err := cfg.SaveConfig(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := LoadConfig(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	// The loaded config must be *behaviorally* identical: identical
	// evaluation results at the headline point.
	a, err := compiled(t, &cfg).Evaluate(ecc.MustHamming74(), 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := compiled(t, &back).Evaluate(ecc.MustHamming74(), 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	if a.LaserPowerW != b.LaserPowerW || a.ChannelPowerW != b.ChannelPowerW {
		t.Error("loaded config evaluates differently")
	}
	if back.Channel.Waveguide.LengthCM != 8 {
		t.Error("tweaked field lost in roundtrip")
	}
	// The interface power table survives too.
	if back.InterfacePowers["H(7,4)"] != cfg.InterfacePowers["H(7,4)"] {
		t.Error("interface power table lost")
	}
}

func TestLoadConfigRejectsGarbageAndInvalid(t *testing.T) {
	if _, err := LoadConfig(strings.NewReader("{oops")); err == nil {
		t.Error("garbage JSON should fail")
	}
	// Valid JSON, invalid physics (zero Fmod).
	if _, err := LoadConfig(strings.NewReader(`{"FmodHz":0}`)); err == nil {
		t.Error("invalid config should fail validation on load")
	}
}

func TestSaveConfigRejectsInvalid(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ndata = -1
	var sb strings.Builder
	if err := cfg.SaveConfig(&sb); err == nil {
		t.Error("invalid config should not serialize")
	}
}
