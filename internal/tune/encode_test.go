package tune

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"photonoc/internal/ecc"
	"photonoc/internal/engine"
	"photonoc/internal/noc"
)

// wideSpace resolves a space whose tile and roster choice lists both hold
// more than 256 entries, so a key narrower than int32 would alias.
func wideSpace(t *testing.T) *space {
	t.Helper()
	e := newTestEngine(t, 1)
	codes := e.Schemes()
	opts := Options{TargetBER: 1e-11, Wavelengths: []int{0, 32}, DACBits: []int{0, 6}}
	for tiles := 2; tiles <= 300; tiles++ {
		opts.Tiles = append(opts.Tiles, tiles)
	}
	for i := 0; i < 300; i++ {
		opts.Rosters = append(opts.Rosters, []ecc.Code{codes[i%len(codes)]})
	}
	_, sp, err := opts.resolve(e)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestDivisorsOf: the mesh column list is every divisor in ascending order,
// found by trial division up to √t, so even a tile count of 10⁹ (100
// divisors) lists in well under a millisecond of work.
func TestDivisorsOf(t *testing.T) {
	sp := &space{divisors: make(map[int][]int)}
	for n := 1; n <= 600; n++ {
		var want []int
		for c := 1; c <= n; c++ {
			if n%c == 0 {
				want = append(want, c)
			}
		}
		if got := sp.divisorsOf(n); !reflect.DeepEqual(got, want) {
			t.Fatalf("divisorsOf(%d) = %v, want %v", n, got, want)
		}
	}
	start := time.Now()
	d := sp.divisorsOf(1_000_000_000)
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("divisorsOf(1e9) took %v, want milliseconds", took)
	}
	if len(d) != 100 || d[0] != 1 || d[99] != 1_000_000_000 || !sort.IntsAreSorted(d) {
		t.Fatalf("divisorsOf(1e9) = %d divisors %v, want 100 ascending from 1 to 1e9", len(d), d)
	}
	for _, c := range d {
		if 1_000_000_000%c != 0 {
			t.Fatalf("divisorsOf(1e9) lists %d, which does not divide it", c)
		}
	}
}

// centre returns the position of bin i of n choices.
func centre(i, n int) float64 { return (float64(i) + 0.5) / float64(n) }

// decodePosition is the reference decode straight from a position, with
// no key in between: what decode(bins(pos)) must reproduce.
func decodePosition(sp *space, pos []float64) (CandidateSpec, engine.NetworkCandidate) {
	spec := CandidateSpec{
		Kind:        sp.kinds[pick(pos[dimKind], len(sp.kinds))],
		Tiles:       sp.tiles[pick(pos[dimTiles], len(sp.tiles))],
		Wavelengths: sp.wavelengths[pick(pos[dimWavelengths], len(sp.wavelengths))],
		DACBits:     sp.dacBits[pick(pos[dimDAC], len(sp.dacBits))],
	}
	if spec.Kind == noc.Mesh {
		div := sp.divisorsOf(spec.Tiles)
		spec.Columns = div[pick(pos[dimColumns], len(div))]
	}
	roster := sp.rosters[pick(pos[dimRoster], len(sp.rosters))]
	for _, c := range roster {
		spec.Roster = append(spec.Roster, c.Name())
	}
	return spec, engine.NetworkCandidate{
		Topology: noc.Config{Kind: spec.Kind, Tiles: spec.Tiles, Columns: spec.Columns, Base: sp.baseFor(spec.Wavelengths)},
		Schemes:  roster,
		Opts: noc.EvalOptions{
			TargetBER:   sp.targetBER,
			Objective:   sp.objective,
			MessageBits: sp.messageBits,
			DAC:         sp.dacFor(spec.DACBits),
		},
	}
}

// TestDesignKey pins the design key on a space wider than 256 choices in
// two dimensions: every bin tuple keys as itself, so distinct tuples never
// share a key; the column bin counts only on a mesh; and decoding a key
// gives what decoding its position directly gives.
func TestDesignKey(t *testing.T) {
	sp := wideSpace(t)
	pos := make([]float64, dims)
	owner := map[designKey][dims]int{}
	for kind := range sp.kinds {
		for tile, tiles := range sp.tiles {
			cols := 1
			if sp.kinds[kind] == noc.Mesh {
				cols = len(sp.divisorsOf(tiles))
			}
			for col := 0; col < cols; col++ {
				for _, roster := range []int{0, 1, 255, 256, 299} {
					for wl := range sp.wavelengths {
						for dac := range sp.dacBits {
							want := [dims]int{kind, tile, col, wl, roster, dac}
							pos[dimKind] = centre(kind, len(sp.kinds))
							pos[dimTiles] = centre(tile, len(sp.tiles))
							pos[dimColumns] = centre(col, cols)
							pos[dimWavelengths] = centre(wl, len(sp.wavelengths))
							pos[dimRoster] = centre(roster, len(sp.rosters))
							pos[dimDAC] = centre(dac, len(sp.dacBits))
							k := sp.bins(pos)
							for d := range k {
								if int(k[d]) != want[d] {
									t.Fatalf("bins(%v) = %v, want %v", pos, k, want)
								}
							}
							if prev, ok := owner[k]; ok && prev != want {
								t.Fatalf("bin tuples %v and %v share key %v", prev, want, k)
							}
							owner[k] = want
						}
					}
				}
			}
		}
	}

	// Off the mesh the column dimension is ignored; on it, different
	// divisors are different designs.
	busAt := func(col float64) []float64 { return []float64{centre(0, 3), 0.99, col, 0, 0, 0} }
	if a, b := sp.bins(busAt(0.05)), sp.bins(busAt(0.95)); a != b {
		t.Fatalf("bus positions differing only in columns keyed %v and %v", a, b)
	}
	meshAt := func(col float64) []float64 { return []float64{centre(2, 3), 0.99, col, 0, 0, 0} }
	if a, b := sp.bins(meshAt(0.05)), sp.bins(meshAt(0.95)); a == b {
		t.Fatalf("mesh positions with different divisors share key %v", a)
	}

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		for d := range pos {
			switch rng.Intn(20) {
			case 0:
				pos[d] = math.NaN()
			case 1:
				pos[d] = -rng.Float64()
			case 2:
				pos[d] = 1 + rng.Float64()
			default:
				pos[d] = rng.Float64()
			}
		}
		spec, cand, err := sp.decode(sp.bins(pos))
		if err != nil {
			t.Fatal(err)
		}
		wantSpec, wantCand := decodePosition(sp, pos)
		if !reflect.DeepEqual(spec, wantSpec) || !reflect.DeepEqual(cand, wantCand) {
			t.Fatalf("position %v: decode(bins) = %+v %+v, want %+v %+v", pos, spec, cand, wantSpec, wantCand)
		}
	}
}

// TestDesignKeyZeroAlloc gates the per-particle key: a repeat sighting of a
// design costs no allocation.
func TestDesignKeyZeroAlloc(t *testing.T) {
	sp := wideSpace(t)
	rng := rand.New(rand.NewSource(1))
	positions := make([][]float64, 64)
	for i := range positions {
		positions[i] = make([]float64, dims)
		for d := range positions[i] {
			positions[i][d] = rng.Float64()
		}
	}
	var sink designKey
	allocs := testing.AllocsPerRun(100, func() {
		for _, pos := range positions {
			sink = sp.bins(pos)
		}
	})
	if allocs != 0 {
		t.Fatalf("bins allocates %.1f times per 64 positions, want 0", allocs)
	}
	_ = sink
}
