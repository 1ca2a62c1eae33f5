package manager

import (
	"math"
	"testing"
	"testing/quick"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
)

func TestRequestRoundTripProperty(t *testing.T) {
	prop := func(src, dst, exp uint8, ctCenti uint16, objRaw uint8) bool {
		if exp == 0 {
			exp = 11
		}
		req := RequestMsg{
			Src:         src,
			Dst:         dst,
			BERExponent: exp,
			MaxCTCenti:  ctCenti,
			Objective:   Objective(objRaw % 3),
		}
		back, err := UnmarshalRequest(req.Marshal())
		return err == nil && back == req
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestResponseRoundTripProperty(t *testing.T) {
	prop := func(src, dst, scheme uint8, dac uint16, ok bool) bool {
		resp := ResponseMsg{Src: src, Dst: dst, SchemeIndex: scheme, DACCode: dac, OK: ok}
		back, err := UnmarshalResponse(resp.Marshal())
		return err == nil && back == resp
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	req := RequestMsg{Src: 1, Dst: 2, BERExponent: 11, Objective: MinPower}
	wire := req.Marshal()
	// Flip a payload byte: checksum must catch it.
	wire[3] ^= 0xFF
	if _, err := UnmarshalRequest(wire); err == nil {
		t.Error("corrupted request should be rejected")
	}
	// Wrong length.
	if _, err := UnmarshalRequest(wire[:5]); err == nil {
		t.Error("short request should be rejected")
	}
	// Wrong type byte.
	wire = req.Marshal()
	wire[0] = 0x00
	if _, err := UnmarshalRequest(wire); err == nil {
		t.Error("wrong type should be rejected")
	}
	// Response side.
	resp := ResponseMsg{Src: 1, Dst: 2, OK: true}
	rw := resp.Marshal()
	rw[4] ^= 0x01
	if _, err := UnmarshalResponse(rw); err == nil {
		t.Error("corrupted response should be rejected")
	}
	if _, err := UnmarshalResponse(rw[:3]); err == nil {
		t.Error("short response should be rejected")
	}
}

func TestRequestForAndRequirements(t *testing.T) {
	req, err := RequestFor(3, 7, Requirements{TargetBER: 1e-11, MaxCT: 1.75, Objective: MinEnergy})
	if err != nil {
		t.Fatal(err)
	}
	if req.BERExponent != 11 || req.MaxCTCenti != 175 || req.Objective != MinEnergy {
		t.Errorf("encoded request wrong: %+v", req)
	}
	back := req.Requirements()
	if math.Abs(back.TargetBER-1e-11)/1e-11 > 1e-9 {
		t.Errorf("BER roundtrip %g", back.TargetBER)
	}
	if math.Abs(back.MaxCT-1.75) > 1e-9 {
		t.Errorf("CT roundtrip %g", back.MaxCT)
	}
	// Out-of-range values are rejected.
	if _, err := RequestFor(0, 0, Requirements{TargetBER: 2}); err == nil {
		t.Error("BER 2 should be rejected")
	}
	if _, err := RequestFor(0, 0, Requirements{TargetBER: 1e-11, MaxCT: 1000}); err == nil {
		t.Error("CT 1000 should be rejected")
	}
	if _, err := RequestFor(0, 0, Requirements{TargetBER: 0.9}); err == nil {
		t.Error("BER exponent < 1 should be rejected")
	}
}

func TestServeEndToEnd(t *testing.T) {
	// The full Section III-C round trip: source builds a wire request,
	// the manager answers with a scheme index + DAC code, and the
	// response decodes to the same decision Configure would make.
	cfg := core.DefaultConfig()
	m, err := newManager(&cfg, ecc.PaperSchemes(), PaperDAC())
	if err != nil {
		t.Fatal(err)
	}
	reqMsg, err := RequestFor(2, 9, Requirements{TargetBER: 1e-11, Objective: MinEnergy})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := UnmarshalResponse(m.Serve(reqMsg.Marshal()))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Src != 2 || resp.Dst != 9 {
		t.Fatalf("bad response %+v", resp)
	}
	want, err := m.Configure(Requirements{TargetBER: 1e-11, Objective: MinEnergy})
	if err != nil {
		t.Fatal(err)
	}
	if m.Schemes()[resp.SchemeIndex].Name() != want.Eval.Code.Name() {
		t.Errorf("wire scheme %s, direct %s", m.Schemes()[resp.SchemeIndex].Name(), want.Eval.Code.Name())
	}
	if int(resp.DACCode) != want.DACCode {
		t.Errorf("wire DAC %d, direct %d", resp.DACCode, want.DACCode)
	}
}

func TestServeInfeasibleAndGarbage(t *testing.T) {
	cfg := core.DefaultConfig()
	m, err := newManager(&cfg, ecc.PaperSchemes(), PaperDAC())
	if err != nil {
		t.Fatal(err)
	}
	// Impossible: BER 1e-12 with CT capped at 1.
	reqMsg, err := RequestFor(1, 2, Requirements{TargetBER: 1e-12, MaxCT: 1.0, Objective: MinPower})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := UnmarshalResponse(m.Serve(reqMsg.Marshal()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Error("infeasible request should answer OK=false")
	}
	// Garbage input never panics and answers not-OK.
	resp, err = UnmarshalResponse(m.Serve([]byte{1, 2, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK {
		t.Error("garbage request should answer OK=false")
	}
}
