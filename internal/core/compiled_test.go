package core

import (
	"context"
	"testing"

	"photonoc/internal/ecc"
	"photonoc/internal/mathx"
)

// TestCompiledEvaluateMatchesPerCall: one long-lived Compiled answers every
// point exactly like a configuration compiled afresh for that single call,
// so solves carry no state from one point to the next.
func TestCompiledEvaluateMatchesPerCall(t *testing.T) {
	cfg := DefaultConfig()
	c := compiled(t, &cfg)
	for _, code := range ecc.ExtendedSchemes() {
		for _, ber := range mathx.Logspace(1e-12, 1e-3, 7) {
			want, err := compiled(t, &cfg).Evaluate(code, ber)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Evaluate(code, ber)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s @ %g: long-lived %+v != per-call %+v", code.Name(), ber, got, want)
			}
		}
	}
}

func TestCompiledIsolatedFromMutation(t *testing.T) {
	cfg := DefaultConfig()
	c, err := cfg.Compile()
	if err != nil {
		t.Fatal(err)
	}
	code := ecc.MustHamming74()
	before, err := c.Evaluate(code, 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the source configuration: the compiled pipeline must not see it.
	cfg.ModulatorPowerW *= 10
	cfg.InterfacePowers["H(7,4)"] = InterfacePower{TransmitterW: 1, ReceiverW: 1}
	after, err := c.Evaluate(code, 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Errorf("compiled evaluation changed after source mutation: %+v vs %+v", before, after)
	}
	if got := c.Config().ModulatorPowerW; got != before.ModulatorPowerW {
		t.Errorf("compiled config modulator power %g, want %g", got, before.ModulatorPowerW)
	}
}

func TestCompileRejectsInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FmodHz = -1
	if _, err := cfg.Compile(); err == nil {
		t.Error("Compile must validate the configuration")
	}
	bad := DefaultConfig()
	bad.Channel.CouplingLossDB = -1
	if _, err := bad.Compile(); err == nil {
		t.Error("Compile must validate the channel")
	}
}

func TestCompiledEvaluatorHonorsContext(t *testing.T) {
	cfg := DefaultConfig()
	c, err := cfg.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Evaluator().Evaluate(ctx, ecc.MustHamming74(), 1e-11); err == nil {
		t.Error("cancelled context must abort the evaluation")
	}
}

// TestCompiledSweepMatchesSequential: SweepWith over the compiled
// Evaluator returns exactly the points of a plain Compiled.Evaluate loop,
// in BER-major, then scheme, order.
func TestCompiledSweepMatchesSequential(t *testing.T) {
	cfg := DefaultConfig()
	codes := ecc.PaperSchemes()
	bers := mathx.Logspace(1e-12, 1e-6, 5)
	c := compiled(t, &cfg)
	var want []Evaluation
	for _, ber := range bers {
		for _, code := range codes {
			ev, err := c.Evaluate(code, ber)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, ev)
		}
	}
	got, err := SweepWith(context.Background(), c.Evaluator(), codes, bers)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("length %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("point %d: %+v != %+v", i, got[i], want[i])
		}
	}
}
