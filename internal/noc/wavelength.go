package noc

import (
	"fmt"
	"maps"
	"slices"

	"photonoc/internal/onoc"
)

// subgrid returns the evenly spaced grid covering a contiguous ascending
// block of the base grid's wavelength indices. The full block returns the
// base grid unchanged, preserving bit-identity for degenerate topologies.
func subgrid(base onoc.WavelengthGrid, lambdas []int) onoc.WavelengthGrid {
	if len(lambdas) == base.Count {
		return base
	}
	first := lambdas[0]
	m := len(lambdas)
	return onoc.WavelengthGrid{
		// Center of the block: λ(first) shifted by half the block span.
		CenterNM:  base.Wavelength(first) + float64(m-1)/2*base.SpacingNM,
		SpacingNM: base.SpacingNM,
		Count:     m,
	}
}

// VerifyAllocation re-checks the wavelength-allocation invariant: on every
// waveguide, no wavelength index is claimed by more than one link, every
// link holds at least one contiguous ascending block, and no index leaves
// the base grid. It exists so property tests (and distrustful callers) can
// audit a built network independently of the layout that allocated it.
func (n *Network) VerifyAllocation() error {
	count := n.cfg.Base.Channel.Grid.Count
	waveguides := n.Waveguides()
	for _, wg := range slices.Sorted(maps.Keys(waveguides)) {
		used := make(map[int]int) // wavelength index → claiming link
		for _, id := range waveguides[wg] {
			l := &n.links[id]
			if len(l.Lambdas) == 0 {
				return fmt.Errorf("noc: link %d holds no wavelengths", id)
			}
			for i, lam := range l.Lambdas {
				if lam < 0 || lam >= count {
					return fmt.Errorf("noc: link %d wavelength %d outside grid [0,%d)", id, lam, count)
				}
				if i > 0 && lam != l.Lambdas[i-1]+1 {
					return fmt.Errorf("noc: link %d wavelength block not contiguous ascending at index %d", id, i)
				}
				if prev, clash := used[lam]; clash {
					return fmt.Errorf("noc: wavelength %d on waveguide %d reused by links %d and %d", lam, wg, prev, id)
				}
				used[lam] = id
			}
		}
	}
	return nil
}
