package manager_test

import (
	"reflect"
	"strings"
	"testing"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/manager"
	"photonoc/internal/noc"
)

// TestLaserMemoMatchesProgram checks the memoized DAC step against
// manager.Program on every link configuration of the tuner's default
// design space (bus, ring and every mesh shape at 8, 12 and 16 tiles),
// each also at a hotter chip activity and with a less efficient laser, ×
// the paper roster × a BER grid × DACs of 1, 4, 6, 8 and 16 bits at three
// full scales: the paper's 700 µW, 150 µW (long links request above it)
// and 2 mW (coarse steps land above the laser's thermal ceiling). Each
// request runs twice, a miss and then a hit, and the three variants of a
// link take turns, so the memo keeps switching lasers. Every answer must
// equal Program's decision bit for bit, or its error text, and a failing
// request must leave the memo as it was.
func TestLaserMemoMatchesProgram(t *testing.T) {
	cfgs := map[string]core.LinkConfig{}
	for _, kind := range []noc.Kind{noc.Bus, noc.Ring, noc.Mesh} {
		for _, tiles := range []int{8, 12, 16} {
			columns := []int{0}
			if kind == noc.Mesh {
				columns = nil
				for c := 1; c <= tiles; c++ {
					if tiles%c == 0 {
						columns = append(columns, c)
					}
				}
			}
			for _, c := range columns {
				net, err := noc.Build(noc.Config{Kind: kind, Tiles: tiles, Columns: c, Base: core.DefaultConfig()})
				if err != nil {
					continue // a shape the grid cannot carry: the tuner scores it infeasible
				}
				for _, l := range net.Links() {
					cfg := l.Config()
					cfgs[core.Fingerprint(cfg)] = cfg
				}
			}
		}
	}

	var memo manager.LaserMemo
	var fullScale, ceiling, ok int
	for _, base := range cfgs {
		hot, dim := base, base
		hot.Channel.Activity = 0.5
		dim.Channel.Laser.Eta0 *= 0.9
		variants := []core.LinkConfig{base, hot, dim}
		compiled := make([]*core.Compiled, len(variants))
		for i := range variants {
			var err error
			if compiled[i], err = variants[i].Compile(); err != nil {
				t.Fatal(err)
			}
		}
		for _, code := range ecc.PaperSchemes() {
			for _, ber := range []float64{1e-6, 1e-9, 1e-11, 1e-12} {
				evs := make([]core.Evaluation, len(variants))
				for v := range variants {
					var err error
					if evs[v], err = compiled[v].Evaluate(code, ber); err != nil {
						t.Fatal(err)
					}
				}
				for _, bits := range []int{1, 4, 6, 8, 16} {
					for _, maxW := range []float64{700e-6, 150e-6, 2e-3} {
						for v := range variants {
							cfg, ev := &variants[v], &evs[v]
							dac := manager.DAC{Bits: bits, MaxOpticalW: maxW}
							want, werr := manager.Program(dac, cfg, ev)
							for pass := 0; pass < 2; pass++ {
								held := memo.Len()
								got, gerr := memo.Program(dac, cfg, ev)
								if werr != nil {
									if gerr == nil || gerr.Error() != werr.Error() {
										t.Fatalf("%s at %g, %+v: memo error %v, Program error %v", code.Name(), ber, dac, gerr, werr)
									}
									if memo.Len() != held {
										t.Fatalf("%s at %g, %+v: a failed request changed the memo from %d to %d entries", code.Name(), ber, dac, held, memo.Len())
									}
									continue
								}
								if gerr != nil || !reflect.DeepEqual(got, want) {
									t.Fatalf("%s at %g, %+v, pass %d: memo %+v, %v; Program %+v", code.Name(), ber, dac, pass, got, gerr, want)
								}
							}
							switch {
							case werr == nil:
								ok++
							case strings.Contains(werr.Error(), "exceeds DAC full scale"):
								fullScale++
							case strings.Contains(werr.Error(), "quantized setting infeasible"):
								ceiling++
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d link configurations: %d programmed, %d above full scale, %d above the thermal ceiling", len(cfgs), ok, fullScale, ceiling)
	if ok == 0 || fullScale == 0 || ceiling == 0 {
		t.Fatal("the grid must exercise programmed, full-scale and thermal-ceiling requests")
	}
}
