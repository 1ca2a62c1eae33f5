package manager

import (
	"testing"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
)

// FuzzServe throws arbitrary bytes at the manager's wire entry point: it
// must never panic and must always answer a well-formed response.
func FuzzServe(f *testing.F) {
	cfg := core.DefaultConfig()
	m, err := newManager(&cfg, ecc.PaperSchemes(), PaperDAC())
	if err != nil {
		f.Fatal(err)
	}
	good, err := RequestFor(1, 2, Requirements{TargetBER: 1e-11, Objective: MinPower})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good.Marshal())
	f.Add([]byte{})
	f.Add([]byte{0x51, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, wire []byte) {
		out := m.Serve(wire)
		resp, err := UnmarshalResponse(out)
		if err != nil {
			t.Fatalf("Serve produced an unparseable response: %v", err)
		}
		if resp.OK && int(resp.SchemeIndex) >= len(m.Schemes()) {
			t.Fatalf("scheme index %d out of roster", resp.SchemeIndex)
		}
	})
}

// FuzzUnmarshalRequest checks the parser never panics on arbitrary input.
func FuzzUnmarshalRequest(f *testing.F) {
	f.Add([]byte{0x51, 1, 2, 11, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, wire []byte) {
		req, err := UnmarshalRequest(wire)
		if err != nil {
			return
		}
		// A successfully parsed request must convert to requirements
		// without NaN/zero BER.
		r := req.Requirements()
		if !(r.TargetBER > 0 && r.TargetBER < 1) {
			t.Fatalf("parsed request gives BER %g", r.TargetBER)
		}
	})
}
