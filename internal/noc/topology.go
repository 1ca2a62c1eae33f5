package noc

import (
	"fmt"

	"photonoc/internal/core"
	"photonoc/internal/onoc"
)

// Link is one MWSR channel of the network: the writer tiles of a bus
// sharing a waveguide toward one reader tile, on an allocated slice of the
// wavelength grid.
type Link struct {
	// ID is the link's index in Network.Links order.
	ID int
	// Reader is the destination tile.
	Reader int
	// Waveguide identifies the physical medium; links sharing a waveguide
	// hold disjoint wavelength allocations.
	Waveguide int
	// LengthCM is the worst-case writer→reader waveguide span.
	LengthCM float64
	// Lambdas are the allocated wavelength indices into the base grid,
	// ascending and contiguous.
	Lambdas []int
	// bus holds the tiles on the link's waveguide; all but Reader write.
	bus bus
	// net is the network the link belongs to, whose base configuration
	// the link's own derives from.
	net *Network
}

// bus is an arithmetic run of tiles: size tiles from first, stride apart.
// Every link of every topology is read on such a run: a whole bus, a mesh
// row or a mesh column.
type bus struct{ first, stride, size int }

// has reports whether tile t is on the bus.
func (b bus) has(t int) bool {
	d := t - b.first
	return d >= 0 && d%b.stride == 0 && d/b.stride < b.size
}

// Writers returns the tiles that can transmit on this link, ascending:
// every tile on its bus but the reader.
func (l *Link) Writers() []int {
	out := make([]int, 0, l.bus.size-1)
	for i := 0; i < l.bus.size; i++ {
		if t := l.bus.first + i*l.bus.stride; t != l.Reader {
			out = append(out, t)
		}
	}
	return out
}

// ONIs returns the number of interfaces on the link's bus: its writers
// and its reader.
func (l *Link) ONIs() int { return l.bus.size }

// WaveguidesPerChannel returns the link configuration's waveguide count:
// the base's on a bus, whose links degenerate to the base channel, and 1
// elsewhere, where each link is one physical waveguide and network totals
// come from Aggregate, not the single-link interconnect scaler.
func (l *Link) WaveguidesPerChannel() int {
	if l.net.cfg.Kind == Bus {
		return l.net.cfg.Base.Channel.Topo.WaveguidesPerChannel
	}
	return 1
}

// Config derives the configuration the solver evaluates on this link: the
// network's base configuration re-scoped to the link's waveguide length,
// interface count, waveguides per channel and wavelength block, as a deep
// copy. Only the length, the interface count and the waveguides per
// channel tell links on one block apart, which is what lets the engine
// compile each block once.
func (l *Link) Config() core.LinkConfig {
	cfg := l.net.cfg.Base.Clone()
	cfg.Channel = l.Channel()
	return cfg
}

// Channel derives the optical channel of the link's configuration (the
// Channel field of Config, without copying the rest).
func (l *Link) Channel() onoc.ChannelSpec {
	ch := l.net.cfg.Base.Channel
	ch.Waveguide.LengthCM = l.LengthCM
	ch.Topo.ONIs = l.ONIs()
	ch.Topo.Wavelengths = len(l.Lambdas)
	ch.Topo.WaveguidesPerChannel = l.WaveguidesPerChannel()
	ch.Grid = subgrid(l.net.cfg.Base.Channel.Grid, l.Lambdas)
	return ch
}

// PropagationDelaySec is the optical flight time over this link's
// worst-case waveguide span — the per-hop propagation term both the
// analytic latency model and the network discrete-event simulator charge.
func (l *Link) PropagationDelaySec() float64 {
	return l.LengthCM * PropagationDelaySecPerCM
}

// CapacityBitsPerSec is the payload capacity of this link under a
// communication-time expansion ct: allocated wavelengths × Fmod / CT.
func (l *Link) CapacityBitsPerSec(ct float64) float64 {
	return float64(len(l.Lambdas)) * l.net.cfg.Base.FmodHz / ct
}

// Network is a compiled topology: links and wavelength allocation, routed
// by its Router. It is immutable and safe for concurrent use.
type Network struct {
	cfg   Config
	rows  int // mesh shape (rows = cols = 0 for non-mesh kinds)
	cols  int
	links []Link
}

// Build compiles a Config into a Network: it lays out the links of the
// topology with their wavelength blocks, checks each link's block grid
// and checks that the routing rule reaches every destination over the
// built links.
//
// Validate has checked the base configuration and bounded the pitch, and
// the layout gives every link at least two tiles and one channel, so a
// link's configuration (Link.Config) can only fail validation on its
// block's grid: a block at the low edge of a grid whose centre sits too
// close to zero.
func Build(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg}
	n.layout()
	for i := range n.links {
		l := &n.links[i]
		if err := subgrid(cfg.Base.Channel.Grid, l.Lambdas).Validate(); err != nil {
			return nil, fmt.Errorf("noc: link %d (reader %d): %w", l.ID, l.Reader, err)
		}
	}
	if err := n.verifyRoutes(); err != nil {
		return nil, err
	}
	return n, nil
}

// layout lays out the links of the topology in ID order. Every tile reads
// one link per bus it sits on, so a link is fixed by its reader, its bus,
// its waveguide and its position among the links sharing that waveguide.
func (n *Network) layout() {
	t := n.cfg.Tiles
	pitch := n.cfg.pitchCM()
	grid := fullGrid(n.cfg.Base.Channel.Grid.Count)
	// addLink appends the link tile reader reads on waveguide, written by
	// the rest of b across lengthCM. It is the pos-th of the k links on its
	// waveguide, so it takes the pos-th of k contiguous blocks of the grid,
	// the first count % k of them one channel wider; a lone link keeps the
	// full grid, which is what makes the bus case degenerate to the base
	// channel exactly. Validate has checked that count ≥ k.
	addLink := func(reader, waveguide int, b bus, lengthCM float64, pos, k int) {
		q, r := len(grid)/k, len(grid)%k
		lo := pos*q + min(pos, r)
		hi := lo + q
		if pos < r {
			hi++
		}
		n.links = append(n.links, Link{
			ID:        len(n.links),
			Reader:    reader,
			Waveguide: waveguide,
			LengthCM:  lengthCM,
			Lambdas:   grid[lo:hi:hi],
			bus:       b,
			net:       n,
		})
	}
	all := bus{0, 1, t}
	switch n.cfg.Kind {
	case Bus:
		// The paper's MWSR bus, replicated once per reader: every link
		// keeps the base channel untouched except for the writer roster, so
		// with Tiles == base ONIs the per-link configuration is the base
		// configuration, byte for byte.
		n.links = make([]Link, 0, t)
		for d := 0; d < t; d++ {
			addLink(d, d, all, n.cfg.Base.Channel.Waveguide.LengthCM, 0, 1)
		}
	case Crossbar:
		// Each reader owns a serpentine waveguide: the medium runs from
		// tile 0 past every writer to tile Tiles−1 and folds back to the
		// reader, so the worst-case span — and with it the loss budget — is
		// distinct per reader position.
		n.links = make([]Link, 0, t)
		span := float64(t - 1)
		for d := 0; d < t; d++ {
			addLink(d, d, all, pitch*(span+span-float64(d)), 0, 1)
		}
	case Ring:
		// Every tile sits on one shared ring waveguide: each reader owns a
		// disjoint block of the grid and the worst-case writer sits a full
		// ring minus one hop away.
		n.links = make([]Link, 0, t)
		for d := 0; d < t; d++ {
			addLink(d, 0, all, pitch*float64(t-1), d, t)
		}
	case Mesh:
		// Tiles form a rows × cols rectangle (Validate has checked the
		// shape). Each row of at least two tiles is a wavelength-routed bus
		// carrying one link per reader in the row; columns likewise.
		// Waveguide IDs: rows are 0..rows−1, columns rows..rows+cols−1.
		rows, cols, _ := n.cfg.meshShape()
		n.rows, n.cols = rows, cols
		nlinks := 0
		if cols >= 2 {
			nlinks += t
		}
		if rows >= 2 {
			nlinks += t
		}
		n.links = make([]Link, 0, nlinks)
		if cols >= 2 {
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					addLink(r*cols+c, r, bus{r * cols, 1, cols}, pitch*float64(cols-1), c, cols)
				}
			}
		}
		if rows >= 2 {
			for c := 0; c < cols; c++ {
				for r := 0; r < rows; r++ {
					addLink(r*cols+c, rows+c, bus{c, cols, rows}, pitch*float64(rows-1), r, rows)
				}
			}
		}
	}
}

// Kind returns the topology family.
func (n *Network) Kind() Kind { return n.cfg.Kind }

// Tiles returns the tile count.
func (n *Network) Tiles() int { return n.cfg.Tiles }

// MeshShape returns the rows × cols factorization (0, 0 for non-mesh
// networks).
func (n *Network) MeshShape() (rows, cols int) { return n.rows, n.cols }

// Links returns a copy of the link table in ID order. The copy is deep on
// the wavelength blocks, upholding the Network's immutability contract
// against caller edits.
func (n *Network) Links() []Link {
	out := make([]Link, len(n.links))
	for i := range n.links {
		out[i] = n.links[i].clone()
	}
	return out
}

// NumLinks returns the link count.
func (n *Network) NumLinks() int { return len(n.links) }

// LinkRef returns a read-only pointer into the network's link table, the
// allocation-free counterpart of Link for hot evaluation loops. The
// pointee must not be mutated: links are shared by every evaluation of
// this network. Returns nil for an out-of-range ID.
func (n *Network) LinkRef(id int) *Link {
	if id < 0 || id >= len(n.links) {
		return nil
	}
	return &n.links[id]
}

// BaseRef returns a read-only pointer to the base configuration every link
// derives from, whose clocks, modulator power and interface powers are
// every link's. Like LinkRef's, the pointee must not be mutated.
func (n *Network) BaseRef() *core.LinkConfig { return &n.cfg.Base }

// Link returns the link with the given ID (a deep copy, like Links).
func (n *Network) Link(id int) (Link, error) {
	if id < 0 || id >= len(n.links) {
		return Link{}, fmt.Errorf("noc: link %d out of range [0,%d)", id, len(n.links))
	}
	return n.links[id].clone(), nil
}

// clone deep-copies the link's wavelength block, which the network's
// links otherwise share read-only.
func (l Link) clone() Link {
	l.Lambdas = append([]int(nil), l.Lambdas...)
	return l
}

// Waveguides returns, per waveguide ID, the IDs of the links sharing it,
// ascending.
func (n *Network) Waveguides() map[int][]int {
	out := make(map[int][]int)
	for i := range n.links {
		wg := n.links[i].Waveguide
		out[wg] = append(out[wg], i)
	}
	return out
}

// fullGrid lists every wavelength index of an m-channel grid.
func fullGrid(m int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = i
	}
	return out
}
