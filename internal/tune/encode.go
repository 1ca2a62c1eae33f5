package tune

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/engine"
	"photonoc/internal/manager"
	"photonoc/internal/netsim"
	"photonoc/internal/noc"
)

// The particle encoding: every knob is one continuous dimension in [0, 1],
// decoded into a discrete choice by even partition of the interval. The
// mesh column dimension indexes the divisors of the decoded tile count, so
// its meaning shifts with the tiles dimension — the PSO still pulls it
// smoothly because nearby positions decode to nearby divisors.
const (
	dimKind = iota
	dimTiles
	dimColumns
	dimWavelengths
	dimRoster
	dimDAC
	dims
)

// CandidateSpec is the decoded, human-readable identity of one evaluated
// design point: everything needed to rebuild its NetworkCandidate by hand
// and reproduce its metrics with an independent Engine.Network call.
type CandidateSpec struct {
	// Kind is the topology family.
	Kind noc.Kind
	// Tiles is the tile count.
	Tiles int
	// Columns is the mesh width (0 for non-mesh kinds).
	Columns int
	// Wavelengths is the wavelength-grid override (0 = the engine's grid).
	Wavelengths int
	// Roster is the scheme subset, registry names in roster order.
	Roster []string
	// DACBits is the DAC resolution (0 = exact analytic laser settings).
	DACBits int
}

// String renders the spec as the compact design label the CLI prints.
func (s *CandidateSpec) String() string {
	out := fmt.Sprintf("%s/%d", s.Kind, s.Tiles)
	if s.Kind == noc.Mesh && s.Columns > 0 {
		out += fmt.Sprintf("x%d", s.Columns)
	}
	if s.Wavelengths > 0 {
		out += fmt.Sprintf(" λ%d", s.Wavelengths)
	}
	if s.DACBits > 0 {
		out += fmt.Sprintf(" dac%d", s.DACBits)
	}
	return out + " [" + strings.Join(s.Roster, "; ") + "]"
}

// less orders specs lexicographically, the tie-break of the canonical front
// ordering.
func (s *CandidateSpec) less(o *CandidateSpec) bool {
	switch {
	case s.Kind != o.Kind:
		return s.Kind < o.Kind
	case s.Tiles != o.Tiles:
		return s.Tiles < o.Tiles
	case s.Columns != o.Columns:
		return s.Columns < o.Columns
	case s.Wavelengths != o.Wavelengths:
		return s.Wavelengths < o.Wavelengths
	case s.DACBits != o.DACBits:
		return s.DACBits < o.DACBits
	default:
		return strings.Join(s.Roster, ";") < strings.Join(o.Roster, ";")
	}
}

// space is the resolved design space of one campaign: the per-dimension
// choice lists plus the memoized per-choice artifacts (wavelength-override
// base configs, DAC programs, per-tile-count traffic matrices) shared by
// every candidate that decodes to the same choice.
type space struct {
	kinds       []noc.Kind
	tiles       []int
	wavelengths []int
	rosters     [][]ecc.Code
	dacBits     []int

	targetBER   float64
	objective   manager.Objective
	messageBits int
	pattern     netsim.Pattern
	hotNode     int
	hotFrac     float64

	engineCfg core.LinkConfig
	dacMaxW   float64

	bases    map[int]core.LinkConfig
	dacs     map[int]*manager.DAC
	traffic  map[int]noc.Matrix
	divisors map[int][]int
}

// pick partitions [0, 1] into n equal bins and returns the bin of x,
// clamping out-of-range positions to the boundary choices.
func pick(x float64, n int) int {
	if math.IsNaN(x) || x <= 0 {
		return 0
	}
	i := int(x * float64(n))
	if i >= n {
		i = n - 1
	}
	return i
}

// divisorsOf lists the positive divisors of t in ascending order, memoized
// per tile count — the mesh column choice list.
func (sp *space) divisorsOf(t int) []int {
	if d, ok := sp.divisors[t]; ok {
		return d
	}
	// Trial division up to √t: each divisor c at or below the root pairs
	// with t/c at or above it, so the upper half is the lower half
	// mirrored.
	var buf [64]int
	lo := buf[:0]
	for c := 1; c <= t/c; c++ {
		if t%c == 0 {
			lo = append(lo, c)
		}
	}
	d := make([]int, len(lo), 2*len(lo))
	copy(d, lo)
	for i := len(lo) - 1; i >= 0; i-- {
		if c := t / lo[i]; c != lo[i] {
			d = append(d, c)
		}
	}
	sp.divisors[t] = d
	return d
}

// baseFor returns the memoized base link configuration for a wavelength
// override (0 = zero value, which makes BuildNetwork adopt the engine's
// own configuration and keeps the common case on the engine's memo).
func (sp *space) baseFor(w int) core.LinkConfig {
	if w == 0 {
		return core.LinkConfig{}
	}
	if b, ok := sp.bases[w]; ok {
		return b
	}
	b := sp.engineCfg
	b.Channel.Grid.Count = w
	b.Channel.Topo.Wavelengths = w
	sp.bases[w] = b
	return b
}

// dacFor returns the memoized DAC program for a resolution (0 = nil, the
// exact analytic laser setting).
func (sp *space) dacFor(bits int) *manager.DAC {
	if bits == 0 {
		return nil
	}
	if d, ok := sp.dacs[bits]; ok {
		return d
	}
	d := &manager.DAC{Bits: bits, MaxOpticalW: sp.dacMaxW}
	sp.dacs[bits] = d
	return d
}

// trafficFor returns the campaign pattern's matrix for a tile count,
// memoized. Uniform traffic returns nil, which the evaluator reads as the
// uniform rule (noc.Matrix.Weight) without building a matrix.
func (sp *space) trafficFor(tiles int) (noc.Matrix, error) {
	if sp.pattern == netsim.Uniform {
		return nil, nil
	}
	if m, ok := sp.traffic[tiles]; ok {
		return m, nil
	}
	raw, err := sp.pattern.Matrix(tiles, sp.hotNode, sp.hotFrac)
	if err != nil {
		return nil, err
	}
	m := noc.Matrix(raw)
	sp.traffic[tiles] = m
	return m, nil
}

// designKey is the identity of one decoded design: the chosen bin of every
// dimension, with the column bin zeroed for non-mesh kinds, which have no
// columns. Positions with equal keys decode to identical candidates. Each
// bin is an int32 because the tile and roster choice lists come off the
// wire, bounded only by the request body, and may hold more than 256
// entries.
type designKey [dims]int32

// bins maps a particle position to its design key without allocating once
// the divisors of its tile count are memoized.
func (sp *space) bins(pos []float64) designKey {
	var k designKey
	k[dimKind] = int32(pick(pos[dimKind], len(sp.kinds)))
	k[dimTiles] = int32(pick(pos[dimTiles], len(sp.tiles)))
	k[dimWavelengths] = int32(pick(pos[dimWavelengths], len(sp.wavelengths)))
	k[dimRoster] = int32(pick(pos[dimRoster], len(sp.rosters)))
	k[dimDAC] = int32(pick(pos[dimDAC], len(sp.dacBits)))
	if sp.kinds[k[dimKind]] == noc.Mesh {
		k[dimColumns] = int32(pick(pos[dimColumns], len(sp.divisorsOf(sp.tiles[k[dimTiles]]))))
	}
	return k
}

// decode maps a design key to its spec and the evaluation candidate the
// engine batch runs. Designs the wavelength grid cannot carry still decode
// — the engine reports them as typed per-candidate errors and the campaign
// treats them as infeasible.
func (sp *space) decode(k designKey) (CandidateSpec, engine.NetworkCandidate, error) {
	spec := CandidateSpec{
		Kind:        sp.kinds[k[dimKind]],
		Tiles:       sp.tiles[k[dimTiles]],
		Wavelengths: sp.wavelengths[k[dimWavelengths]],
		DACBits:     sp.dacBits[k[dimDAC]],
	}
	if spec.Kind == noc.Mesh {
		spec.Columns = sp.divisorsOf(spec.Tiles)[k[dimColumns]]
	}
	roster := sp.rosters[k[dimRoster]]
	spec.Roster = make([]string, len(roster))
	for i, c := range roster {
		spec.Roster[i] = c.Name()
	}

	traffic, err := sp.trafficFor(spec.Tiles)
	if err != nil {
		return CandidateSpec{}, engine.NetworkCandidate{}, err
	}
	cand := engine.NetworkCandidate{
		Topology: noc.Config{
			Kind:    spec.Kind,
			Tiles:   spec.Tiles,
			Columns: spec.Columns,
			Base:    sp.baseFor(spec.Wavelengths),
		},
		Schemes: roster,
		Opts: noc.EvalOptions{
			TargetBER:   sp.targetBER,
			Objective:   sp.objective,
			Traffic:     traffic,
			MessageBits: sp.messageBits,
			DAC:         sp.dacFor(spec.DACBits),
		},
	}
	return spec, cand, nil
}

// defaultRosters builds the default roster subsets from an engine roster:
// the full roster plus one single-scheme roster per code, so the search can
// trade the manager's full selection freedom against fixed-scheme designs.
func defaultRosters(codes []ecc.Code) [][]ecc.Code {
	out := make([][]ecc.Code, 0, len(codes)+1)
	out = append(out, codes)
	for i := range codes {
		out = append(out, codes[i:i+1])
	}
	return out
}

// sortedInts returns a sorted copy without duplicates.
func sortedInts(in []int) []int {
	out := append([]int(nil), in...)
	sort.Ints(out)
	j := 0
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			out[j] = v
			j++
		}
	}
	return out[:j]
}
