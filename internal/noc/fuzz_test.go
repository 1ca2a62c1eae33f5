package noc

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"

	"photonoc/internal/core"
)

// FuzzParseKind: the CLI-facing parser never panics and round-trips with
// String on every accepted spelling.
func FuzzParseKind(f *testing.F) {
	for _, seed := range []string{"bus", "crossbar", "ring", "mesh", "", "Bus", "mesh ", "torus", "\x00"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		k, err := ParseKind(s)
		if err != nil {
			return
		}
		if k.String() != s {
			t.Fatalf("ParseKind(%q) = %v, but %v.String() = %q", s, k, k, k.String())
		}
		if back, err := ParseKind(k.String()); err != nil || back != k {
			t.Fatalf("round trip %q → %v → %q broke: %v", s, k, k.String(), err)
		}
	})
}

// FuzzMatrixValidate throws arbitrary shapes and values at the traffic
// matrix invariants: Validate must never panic, and a matrix it accepts
// must genuinely be row-stochastic with a zero diagonal — the property
// every consumer (Aggregate's share routing, the DES destination sampler)
// relies on to not divide by zero or sample the diagonal.
func FuzzMatrixValidate(f *testing.F) {
	// Seeds: a valid uniform 3×3, a ragged shape, NaN, a negative weight,
	// a self-loop, an overweight row.
	f.Add(3, 3, []byte{})
	f.Add(3, 2, []byte{0x01, 0x02})
	f.Add(2, 2, []byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 1})
	f.Add(4, 4, []byte{0xbf, 0xf0, 0, 0, 0, 0, 0, 0})
	f.Add(1, 1, []byte{0x3f, 0xf0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, tiles, rows int, raw []byte) {
		if tiles < 0 || tiles > 16 || rows < 0 || rows > 16 {
			return // keep the harness fast; shape mismatches are covered inside the range
		}
		// Build a rows × (variable) matrix from the raw float64 stream; the
		// row widths intentionally drift so both ragged and square shapes
		// are exercised.
		next := func(i int) float64 {
			if len(raw) < 8 {
				return 0
			}
			off := (i * 8) % (len(raw) - 7)
			return math.Float64frombits(binary.LittleEndian.Uint64(raw[off : off+8]))
		}
		m := make(Matrix, rows)
		idx := 0
		for r := range m {
			width := tiles
			if len(raw) > 0 && raw[idx%len(raw)]%5 == 0 {
				width = tiles + int(raw[idx%len(raw)]%3) - 1 // ragged row
			}
			if width < 0 {
				width = 0
			}
			m[r] = make([]float64, width)
			for c := range m[r] {
				m[r][c] = next(idx)
				idx++
			}
		}

		err := m.Validate(tiles)
		if err != nil {
			return
		}
		// Accepted ⇒ the invariants actually hold.
		if len(m) != tiles {
			t.Fatalf("accepted %d rows for %d tiles", len(m), tiles)
		}
		active := 0
		for r, row := range m {
			if len(row) != tiles {
				t.Fatalf("accepted ragged row %d (%d columns for %d tiles)", r, len(row), tiles)
			}
			sum := 0.0
			for c, w := range row {
				if math.IsNaN(w) || w < 0 {
					t.Fatalf("accepted weight %g at [%d][%d]", w, r, c)
				}
				if c == r && w != 0 {
					t.Fatalf("accepted self-loop at row %d", r)
				}
				sum += w
			}
			if sum != 0 && math.Abs(sum-1) > 1e-9 {
				t.Fatalf("accepted row %d summing to %g", r, sum)
			}
			if sum > 0 {
				active++
			}
		}
		if active == 0 {
			t.Fatal("accepted a matrix with no active source")
		}
		// And Aggregate's active-source count agrees with the sums above on
		// every accepted matrix: the delivered rate is active tiles × rate.
		net, dec := fuzzBus(t, tiles)
		res, err := NewEvalSession().Aggregate(net, dec, EvalOptions{TargetBER: 1e-11, Traffic: m})
		if err != nil {
			t.Fatalf("Aggregate refused an accepted matrix: %v", err)
		}
		if want := float64(active) * res.InjectionRateBitsPerSec; res.DeliveredBitsPerSec != want {
			t.Fatalf("delivered %g, want %d active sources × rate = %g", res.DeliveredBitsPerSec, active, want)
		}
	})
}

// fuzzBuses memoizes fuzzBus per tile count.
var fuzzBuses sync.Map

// fuzzBus returns a tiles-tile bus over the paper link with every link
// decided on the paper link's feasible evaluations.
func fuzzBus(t *testing.T, tiles int) (*Network, []LinkDecision) {
	type bus struct {
		net *Network
		dec []LinkDecision
	}
	if b, ok := fuzzBuses.Load(tiles); ok {
		return b.(bus).net, b.(bus).dec
	}
	net, err := Build(Config{Kind: Bus, Tiles: tiles, Base: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	b := bus{net, syntheticDecisions(t, net, baseEvaluations(t, 1e-11))}
	fuzzBuses.Store(tiles, b)
	return b.net, b.dec
}

// FuzzBuild throws arbitrary network shapes at Build: every configuration
// Validate accepts must build into a network whose wavelength allocation
// holds, whose every route ends at its destination over links the arriving
// tile writes on, and whose links equal the reference layout and
// allocation loops.
func FuzzBuild(f *testing.F) {
	f.Add(int(Bus), 12, 0, 16, 0.0)
	f.Add(int(Crossbar), 16, 0, 16, 0.5)
	f.Add(int(Ring), 16, 0, 16, 0.0)
	f.Add(int(Ring), 7, 0, 10, 0.25)
	f.Add(int(Mesh), 16, 4, 16, 0.0)
	f.Add(int(Mesh), 12, 0, 5, 1.5)
	f.Add(int(Mesh), 9, 1, 9, 0.0)
	f.Add(int(Mesh), 6, 4, 16, 0.0)
	f.Add(int(Crossbar), MaxTiles, 0, 1, 0.0)
	f.Add(int(Bus), MaxTiles+1, 0, 16, 0.0)
	f.Add(7, 4, 0, 16, -1.0)
	f.Fuzz(func(t *testing.T, kind, tiles, columns, count int, pitch float64) {
		if tiles < 0 || tiles > 600 || count < 1 || count > 64 {
			return
		}
		base := core.DefaultConfig()
		base.Channel.Grid.Count = count
		base.Channel.Topo.Wavelengths = count
		cfg := Config{Kind: Kind(kind), Tiles: tiles, Columns: columns, TilePitchCM: pitch, Base: base}
		if cfg.Validate() != nil {
			return
		}
		net, err := Build(cfg)
		if err != nil {
			t.Fatalf("Validate accepted %+v but Build failed: %v", cfg, err)
		}
		if err := net.VerifyAllocation(); err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%v/%d/cols=%d/grid=%d", cfg.Kind, tiles, columns, count)
		checkLinksMatchReference(t, name, net, count)
		writes := make([][]bool, net.NumLinks()) // writes[link][tile]
		for id := range writes {
			writes[id] = make([]bool, tiles)
			for _, w := range net.LinkRef(id).Writers() {
				writes[id][w] = true
			}
		}
		for s := 0; s < tiles; s++ {
			for d := 0; d < tiles; d++ {
				path, err := net.Route(s, d)
				if err != nil {
					t.Fatalf("%s: Route(%d, %d): %v", name, s, d, err)
				}
				at := s
				for _, id := range path {
					if !writes[id][at] {
						t.Fatalf("%s: route %d→%d crosses link %d, which tile %d does not write", name, s, d, id, at)
					}
					at = net.LinkRef(id).Reader
				}
				if at != d {
					t.Fatalf("%s: route %d→%d ends at tile %d", name, s, d, at)
				}
			}
		}
	})
}
