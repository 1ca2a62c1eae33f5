package onoc

import (
	"math"
	"testing"
)

// blockSpec re-scopes base to the contiguous block of count channels from
// index first: the block's own evenly spaced grid, centred on the block.
func blockSpec(base ChannelSpec, first, count int) ChannelSpec {
	s := base
	s.Grid = WavelengthGrid{
		CenterNM:  base.Grid.Wavelength(first) + float64(count-1)/2*base.Grid.SpacingNM,
		SpacingNM: base.Grid.SpacingNM,
		Count:     count,
	}
	s.Topo.Wavelengths = count
	return s
}

// checkSplit compiles the block of spec once, with the paper's link
// scalars, derives the link of the given length, interface count and
// waveguides per channel from it, and requires the result, and
// ChannelSpec.Compile of the link's specification, to equal the unsplit
// compile of that specification bit for bit.
func checkSplit(t testing.TB, block ChannelSpec, lengthCM float64, onis, waveguides int) {
	t.Helper()
	bp, err := block.CompileBlock()
	if err != nil {
		t.Fatal(err)
	}
	p, err := bp.Link(lengthCM, onis, waveguides)
	if err != nil {
		t.Fatal(err)
	}
	link := block
	link.Waveguide.LengthCM = lengthCM
	link.Topo.ONIs, link.Topo.WaveguidesPerChannel = onis, waveguides
	requireReference(t, p, &link)
	if p, err = link.Compile(); err != nil {
		t.Fatal(err)
	}
	requireReference(t, p, &link)
}

// TestBlockPlanMatchesReference covers the grid sizes and link scalars the
// network layer derives: full grids and sub-blocks, zero to long spans,
// two to 512 interfaces.
func TestBlockPlanMatchesReference(t *testing.T) {
	for _, g := range []int{1, 2, 16, 64, 512} {
		base := PaperChannel()
		base.Grid.Count, base.Topo.Wavelengths = g, g
		blocks := [][2]int{{0, g}, {0, (g + 1) / 2}, {g / 2, g - g/2}, {g - 1, 1}}
		if testing.Short() && g == 512 {
			blocks = blocks[:1]
		}
		for _, blk := range blocks {
			spec := blockSpec(base, blk[0], blk[1])
			for _, link := range []struct {
				lengthCM         float64
				onis, waveguides int
			}{{6, 12, 16}, {0, 2, 1}, {0.35, 512, 1}, {1e3, 7, 3}} {
				checkSplit(t, spec, link.lengthCM, link.onis, link.waveguides)
			}
		}
	}
}

func TestBlockPlanLinkValidation(t *testing.T) {
	spec := PaperChannel()
	bp, err := spec.CompileBlock()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		lengthCM         float64
		onis, waveguides int
	}{
		{6, 1, 1}, {6, 12, 0}, {-1, 12, 1},
		{math.NaN(), 12, 1}, {math.Inf(1), 12, 1},
	} {
		if _, err := bp.Link(c.lengthCM, c.onis, c.waveguides); err == nil {
			t.Errorf("Link(%g, %d, %d) accepted", c.lengthCM, c.onis, c.waveguides)
		}
	}
	bad := PaperChannel()
	bad.Grid.CenterNM = -1
	if _, err := bad.CompileBlock(); err == nil {
		t.Error("CompileBlock must validate the specification")
	}
}

// FuzzBlockPlan draws a grid of at most 64 channels, a block of it and a
// link on that block, and requires the link derived from the block plan to
// equal the unsplit compile of the link's specification bit for bit.
func FuzzBlockPlan(f *testing.F) {
	f.Add(16, 0, 16, 6.0, 12, 16)
	f.Add(16, 4, 4, 0.35, 4, 1)
	f.Add(64, 63, 1, 0.0, 2, 1)
	f.Add(7, 2, 3, 123.5, 9, 2)
	f.Fuzz(func(t *testing.T, g, first, count int, lengthCM float64, onis, waveguides int) {
		if g < 1 || g > 64 || first < 0 || count < 1 || first+count > g ||
			!(lengthCM >= 0 && lengthCM <= 1e6) || onis < 2 || onis > 1024 ||
			waveguides < 1 || waveguides > 64 {
			return
		}
		base := PaperChannel()
		base.Grid.Count, base.Topo.Wavelengths = g, g
		checkSplit(t, blockSpec(base, first, count), lengthCM, onis, waveguides)
	})
}
