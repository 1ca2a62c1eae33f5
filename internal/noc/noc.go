// Package noc scales the paper's single MWSR channel to a whole
// network-on-chip: it instantiates many onoc.ChannelSpec-backed links into
// full topologies, each link a reader on a bus of writer tiles, splits the
// shared wavelength grid across links that ride the same physical
// waveguide, routes (src, dst) tile pairs by a closed-form rule (Router),
// and aggregates per-link operating points into network-level energy,
// saturation throughput and latency figures — the network-scale evaluation
// the paper defers to future work (Section VI).
//
// Four topology families are supported:
//
//   - Bus: the paper's single MWSR bus, replicated once per reader tile
//     with the base channel untouched. With Tiles equal to the base
//     topology's ONIs this is the degenerate case: every link is the
//     calibrated paper channel, bit for bit.
//   - Crossbar: an SWMR-style crossbar where each reader owns a dedicated
//     serpentine waveguide whose length depends on the reader's position,
//     so every link carries a distinct loss budget.
//   - Ring: a wavelength-routed ring. All links share one ring waveguide,
//     so the wavelength grid is partitioned across readers — no wavelength
//     is reused on the shared medium — and any writer reaches any reader in
//     a single hop on the reader's subgrid.
//   - Mesh: a rectangular mesh of MWSR groups. Each row and each column is
//     a wavelength-routed bus; XY routing crosses at most two links
//     (row first, then column).
//
// Build compiles a Config into an immutable Network (links, wavelength
// allocation, routing rule); the engine layer solves every (link, scheme)
// cell and Aggregate folds the solved links under a traffic matrix into a
// Result.
package noc

import (
	"fmt"
	"math"

	"photonoc/internal/core"
)

// MaxTiles bounds Config.Tiles. A build's route check grows as Tiles², so
// the bound refuses a request before it can run without limit: on a 2-CPU
// host (go1.24), a 512-tile crossbar builds in about 2 ms and 0.23 MiB, a
// 1024-tile one in about 9 ms and 0.45 MiB.
const MaxTiles = 512

// MaxWavelengths bounds the base wavelength grid, Base.Channel.Grid.Count.
// It is no lower than MaxTiles because a ring gives each reader at least
// one channel. At the bound, on a 2-CPU host (go1.24), a 512-tile ring or
// crossbar builds in about 2 ms and 0.24 MiB, and the engine compiles a
// 512-channel wavelength block in about 30 ms (the block compile grows as
// the grid squared) and each link on it in O(grid): a cold Network call
// on a 512-tile crossbar over that grid takes about 55 ms.
const MaxWavelengths = 512

// ValidateTiles checks a tile count against [2, MaxTiles]; Validate runs
// it first, and wire decoders run it to refuse a count before anything is
// built.
func ValidateTiles(n int) error {
	if n < 2 {
		return fmt.Errorf("noc: need at least 2 tiles, got %d", n)
	}
	if n > MaxTiles {
		return fmt.Errorf("noc: %d tiles exceed the bound of %d", n, MaxTiles)
	}
	return nil
}

// Kind selects the topology family.
type Kind int

// Topology families.
const (
	// Bus replicates the paper's MWSR bus once per reader tile.
	Bus Kind = iota
	// Crossbar gives each reader a dedicated distance-dependent waveguide.
	Crossbar
	// Ring shares one ring waveguide across all readers, partitioning the
	// wavelength grid.
	Ring
	// Mesh arranges tiles in a rectangle of row/column buses with XY
	// routing.
	Mesh
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Bus:
		return "bus"
	case Crossbar:
		return "crossbar"
	case Ring:
		return "ring"
	case Mesh:
		return "mesh"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind maps the CLI spelling of a topology family to its Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "bus":
		return Bus, nil
	case "crossbar":
		return Crossbar, nil
	case "ring":
		return Ring, nil
	case "mesh":
		return Mesh, nil
	default:
		return 0, fmt.Errorf("noc: unknown topology %q (want bus|crossbar|ring|mesh)", s)
	}
}

// Config describes a network to build.
type Config struct {
	// Kind is the topology family.
	Kind Kind
	// Tiles is the number of network tiles. Every tile is both a potential
	// writer and the reader of (at least) one link.
	Tiles int
	// Base is the prototype link configuration every per-link configuration
	// derives from: the optical channel is re-scoped per link (waveguide
	// length, wavelength subgrid, writer count) while clocks, interface
	// powers and device prototypes are shared.
	Base core.LinkConfig
	// TilePitchCM is the physical spacing between adjacent tiles, driving
	// per-link waveguide lengths for Crossbar, Ring and Mesh (Bus keeps the
	// base waveguide untouched). 0 derives a pitch spreading the base
	// waveguide over the tile span: Base length / (Tiles − 1).
	TilePitchCM float64
	// Columns fixes the mesh width; 0 picks the most square factorization
	// of Tiles. Ignored by the other kinds.
	Columns int
}

// Validate checks the configuration, including that the wavelength grid is
// large enough for the topology's shared-waveguide partitioning.
func (c *Config) Validate() error {
	if err := c.Base.Validate(); err != nil {
		return fmt.Errorf("noc: base config: %w", err)
	}
	if err := ValidateTiles(c.Tiles); err != nil {
		return err
	}
	grid := c.Base.Channel.Grid
	if grid.Count > MaxWavelengths {
		return fmt.Errorf("noc: %d wavelengths exceed the bound of %d", grid.Count, MaxWavelengths)
	}
	if c.TilePitchCM < 0 {
		return fmt.Errorf("noc: tile pitch %g cm must be non-negative", c.TilePitchCM)
	}
	if math.IsNaN(c.TilePitchCM) || math.IsInf(c.TilePitchCM, 0) {
		return fmt.Errorf("noc: tile pitch %g cm must be finite", c.TilePitchCM)
	}
	// No link spans more than two runs of the tile row (a crossbar's
	// serpentine), so this keeps every link length finite.
	if c.Kind != Bus && math.IsInf(c.pitchCM()*float64(2*(c.Tiles-1)), 0) {
		return fmt.Errorf("noc: tile pitch %g cm overflows the longest waveguide", c.TilePitchCM)
	}
	switch c.Kind {
	case Bus, Crossbar:
		// Every link owns its waveguide and the full grid.
	case Ring:
		if grid.Count < c.Tiles {
			return fmt.Errorf("noc: ring needs at least one wavelength per reader: grid has %d channels for %d tiles", grid.Count, c.Tiles)
		}
	case Mesh:
		rows, cols, err := c.meshShape()
		if err != nil {
			return err
		}
		if grid.Count < cols {
			return fmt.Errorf("noc: mesh row bus needs %d wavelength blocks but the grid has %d channels", cols, grid.Count)
		}
		if grid.Count < rows {
			return fmt.Errorf("noc: mesh column bus needs %d wavelength blocks but the grid has %d channels", rows, grid.Count)
		}
	default:
		return fmt.Errorf("noc: unknown topology kind %d", int(c.Kind))
	}
	return nil
}

// meshShape resolves the mesh factorization Rows × Columns == Tiles.
func (c *Config) meshShape() (rows, cols int, err error) {
	cols = c.Columns
	if cols == 0 {
		// Most square factorization: largest divisor ≤ √Tiles.
		for d := int(math.Sqrt(float64(c.Tiles))); d >= 1; d-- {
			if c.Tiles%d == 0 {
				rows = d
				break
			}
		}
		cols = c.Tiles / rows
		return rows, cols, nil
	}
	if cols < 1 || c.Tiles%cols != 0 {
		return 0, 0, fmt.Errorf("noc: %d tiles do not factor into %d columns", c.Tiles, cols)
	}
	return c.Tiles / cols, cols, nil
}

// pitchCM resolves the tile pitch, defaulting to the base waveguide spread
// over the tile span.
func (c *Config) pitchCM() float64 {
	if c.TilePitchCM > 0 {
		return c.TilePitchCM
	}
	return c.Base.Channel.Waveguide.LengthCM / float64(c.Tiles-1)
}
