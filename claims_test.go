package photonoc

// claims_test.go is the executive verification: every claim the paper makes
// in its abstract and Section V, asserted in one place against the live
// model. If this file is green, the reproduction stands.

import (
	"context"
	"testing"

	"photonoc/internal/ecc"
)

// TestClaimLaserPowerHalvedByHamming — abstract: "using simple Hamming coder
// and decoder permits to reduce the laser power by nearly 50%".
func TestClaimLaserPowerHalvedByHamming(t *testing.T) {
	cfg := DefaultConfig()
	link := compile(t, &cfg)
	u, err := link.Evaluate(Uncoded64(), 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	h, err := link.Evaluate(Hamming74(), 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	reduction := 1 - h.LaserPowerW/u.LaserPowerW
	if reduction < 0.45 || reduction > 0.60 {
		t.Errorf("laser power reduction = %.1f%%, paper claims ≈50%%", reduction*100)
	}
}

// TestClaimNoDataRateLoss — abstract: "without loss in communication data
// rate": the wire rate stays at Fmod; only the payload share changes by CT.
func TestClaimNoDataRateLoss(t *testing.T) {
	cfg := DefaultConfig()
	link := compile(t, &cfg)
	for _, code := range PaperSchemes() {
		ev, err := link.Evaluate(code, 1e-11)
		if err != nil {
			t.Fatal(err)
		}
		if got := ev.PayloadRateBitsPerSec(&cfg) * ev.CT; got != cfg.FmodHz {
			t.Errorf("%s: wire rate %g, want Fmod", code.Name(), got)
		}
	}
}

// TestClaimNegligibleHardwareOverhead — abstract: "negligible hardware
// overhead": the coded interface power stays µW-scale, under 0.5% of the
// laser it saves.
func TestClaimNegligibleHardwareOverhead(t *testing.T) {
	cfg := DefaultConfig()
	ev, err := compile(t, &cfg).Evaluate(Hamming74(), 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	if share := ev.InterfacePowerW / ev.LaserPowerW; share > 0.005 {
		t.Errorf("interface/laser power ratio = %.4f, should be negligible", share)
	}
}

// TestClaimLaserDominatesChannel — §V-C: "the laser sources cost for 92% of
// the total power" (uncoded).
func TestClaimLaserDominatesChannel(t *testing.T) {
	cfg := DefaultConfig()
	ev, err := compile(t, &cfg).Evaluate(Uncoded64(), 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	if s := ev.LaserShare(); s < 0.88 || s > 0.95 {
		t.Errorf("laser share = %.1f%%, paper says 92%%", s*100)
	}
}

// TestClaimChannelReductions — §V-C: channel power −45% H(71,64), −49% H(7,4).
func TestClaimChannelReductions(t *testing.T) {
	cfg := DefaultConfig()
	h, err := HeadlineWith(context.Background(), reference(t, &cfg), &cfg, 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	if r := h.ChannelReduction["H(71,64)"]; r < 0.40 || r > 0.52 {
		t.Errorf("H(71,64) reduction %.1f%%, paper 45%%", r*100)
	}
	if r := h.ChannelReduction["H(7,4)"]; r < 0.44 || r > 0.56 {
		t.Errorf("H(7,4) reduction %.1f%%, paper 49%%", r*100)
	}
}

// TestClaimBER12OnlyWithECC — §V-B: "targeting a 1e-12 BER without ECC is
// not possible since it exceeds the maximum optical power deliverable by
// the laser, reaching this BER is possible using H(71,64) and H(7,4)".
func TestClaimBER12OnlyWithECC(t *testing.T) {
	cfg := DefaultConfig()
	link := compile(t, &cfg)
	u, err := link.Evaluate(Uncoded64(), 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if u.Feasible {
		t.Error("uncoded 1e-12 must be infeasible")
	}
	for _, code := range []Code{Hamming7164(), Hamming74()} {
		ev, err := link.Evaluate(code, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		if !ev.Feasible {
			t.Errorf("%s must reach 1e-12", code.Name())
		}
	}
}

// TestClaimEnergyPerBitPreserved — abstract/§V-C: the power cut comes
// "without compromising energy per bit figures"; H(71,64) is the most
// energy-efficient.
func TestClaimEnergyPerBitPreserved(t *testing.T) {
	cfg := DefaultConfig()
	h, err := HeadlineWith(context.Background(), reference(t, &cfg), &cfg, 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	if h.BestEnergyScheme != "H(71,64)" {
		t.Errorf("best energy scheme = %s, paper says H(71,64)", h.BestEnergyScheme)
	}
	if h.EnergyPerBitPJ["H(71,64)"] >= h.EnergyPerBitPJ["w/o ECC"] {
		t.Error("H(71,64) must not compromise energy per bit vs uncoded")
	}
}

// TestClaimInterconnectSaving — §V-C: "the total power saving reaches 22W
// for the whole interconnect".
func TestClaimInterconnectSaving(t *testing.T) {
	cfg := DefaultConfig()
	h, err := HeadlineWith(context.Background(), reference(t, &cfg), &cfg, 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	if h.InterconnectSavingW < 18 || h.InterconnectSavingW > 25 {
		t.Errorf("interconnect saving = %.1f W, paper ≈22 W", h.InterconnectSavingW)
	}
}

// TestClaimParetoMembership — §V-C: "for a given BER, all the coding
// techniques belong to the Pareto front".
func TestClaimParetoMembership(t *testing.T) {
	cfg := DefaultConfig()
	pts, err := TradeoffPlaneWith(context.Background(), reference(t, &cfg), ecc.PaperSchemes(), []float64{1e-6, 1e-8, 1e-10, 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.Feasible && !p.OnPareto {
			t.Errorf("%s at BER %.0e should be Pareto-optimal", p.Scheme, p.TargetBER)
		}
	}
}

// TestClaimTenGbpsInterfaces — §V-A: "The critical path results show
// positive slacks, compared to the aimed frequencies, allowing
// transmissions at 10 Gbit/s".
func TestClaimTenGbpsInterfaces(t *testing.T) {
	rows, _, err := SynthesizeTable1()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.SlackPS <= 0 {
			t.Errorf("%s misses timing: slack %.0f ps", r.Block, r.SlackPS)
		}
	}
}

// TestClaimCommunicationTimes — §IV-D: "when using H(7,4), 75% parity bits
// are added to the payload which leads to CT = 1.75" (and CT = 1.109 for
// H(71,64)).
func TestClaimCommunicationTimes(t *testing.T) {
	if ct := ecc.CT(Hamming74()); ct != 1.75 {
		t.Errorf("H(7,4) CT = %g", ct)
	}
	if ct := ecc.CT(Hamming7164()); ct != 71.0/64.0 {
		t.Errorf("H(71,64) CT = %g", ct)
	}
	if ct := ecc.CT(Uncoded64()); ct != 1 {
		t.Errorf("uncoded CT = %g", ct)
	}
}
