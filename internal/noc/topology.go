package noc

import (
	"fmt"

	"photonoc/internal/core"
)

// Link is one MWSR channel of the network: a set of writer tiles sharing a
// waveguide toward one reader tile, on an allocated slice of the wavelength
// grid.
type Link struct {
	// ID is the link's index in Network.Links order.
	ID int
	// Reader is the destination tile.
	Reader int
	// Writers are the tiles that can transmit on this link, strictly
	// ascending (Build's route check binary-searches them).
	Writers []int
	// Waveguide identifies the physical medium; links sharing a waveguide
	// hold disjoint wavelength allocations.
	Waveguide int
	// LengthCM is the worst-case writer→reader waveguide span.
	LengthCM float64
	// Lambdas are the allocated wavelength indices into the base grid,
	// ascending and contiguous.
	Lambdas []int
	// Config is the derived per-link configuration the solver evaluates:
	// the base configuration re-scoped to this link's waveguide length,
	// writer count and wavelength subgrid.
	Config core.LinkConfig
	// Fingerprint is the digest of Config — links sharing it share one
	// compiled solve plan and therefore memoized operating points.
	Fingerprint string
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
	return float64(len(l.Lambdas)) * l.Config.FmodHz / ct
}

// Network is a compiled topology: links and wavelength allocation, routed
// by its Router. It is immutable and safe for concurrent use.
type Network struct {
	cfg   Config
	rows  int // mesh shape (rows = cols = 0 for non-mesh kinds)
	cols  int
	links []Link
	// waveguideLinks groups link IDs by waveguide for allocation checks.
	waveguideLinks map[int][]int
}

// Build compiles a Config into a Network: it lays out the links of the
// topology, allocates the wavelength grid over shared waveguides, derives
// each link's configuration (validated against the core rules) and checks
// that the routing rule reaches every destination over the built links.
func Build(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg}
	var err error
	switch cfg.Kind {
	case Bus:
		err = n.buildBus()
	case Crossbar:
		err = n.buildCrossbar()
	case Ring:
		err = n.buildRing()
	case Mesh:
		err = n.buildMesh()
	}
	if err != nil {
		return nil, err
	}
	n.waveguideLinks = make(map[int][]int)
	for i := range n.links {
		l := &n.links[i]
		n.waveguideLinks[l.Waveguide] = append(n.waveguideLinks[l.Waveguide], l.ID)
	}
	if err := n.finishLinks(); err != nil {
		return nil, err
	}
	if err := n.verifyRoutes(); err != nil {
		return nil, err
	}
	return n, nil
}

// buildBus replicates the paper's MWSR bus once per reader: every link
// keeps the base channel untouched except for the writer roster, so with
// Tiles == base ONIs the per-link configuration is the base configuration,
// byte for byte.
func (n *Network) buildBus() error {
	length := n.cfg.Base.Channel.Waveguide.LengthCM
	n.buildReaders(func(d int) int { return d }, func(int) float64 { return length })
	return nil
}

// buildCrossbar gives each reader a dedicated serpentine waveguide: the
// medium runs from tile 0 past every writer to tile Tiles−1 and folds back
// to the reader, so the worst-case span — and with it the loss budget — is
// distinct per reader position.
func (n *Network) buildCrossbar() error {
	pitch := n.cfg.pitchCM()
	span := float64(n.cfg.Tiles - 1)
	n.buildReaders(func(d int) int { return d }, func(d int) float64 { return pitch * (span + span - float64(d)) })
	return nil
}

// buildRing places every tile on one shared ring waveguide: each reader
// owns a disjoint block of the grid (allocated in finishLinks) and the
// worst-case writer sits a full ring minus one hop away.
func (n *Network) buildRing() error {
	length := n.cfg.pitchCM() * float64(n.cfg.Tiles-1)
	n.buildReaders(func(int) int { return 0 }, func(int) float64 { return length })
	return nil
}

// buildReaders lays out the single-hop kinds: link d is tile d's reader
// channel on waveguide waveguide(d), spanning length(d), with every other
// tile a writer. The writer lists share one backing array.
func (n *Network) buildReaders(waveguide func(d int) int, length func(d int) float64) {
	t := n.cfg.Tiles
	n.links = make([]Link, t)
	writers := make([]int, 0, t*(t-1))
	for d := 0; d < t; d++ {
		start := len(writers)
		for w := 0; w < t; w++ {
			if w != d {
				writers = append(writers, w)
			}
		}
		n.links[d] = Link{
			ID:        d,
			Reader:    d,
			Writers:   writers[start:len(writers):len(writers)],
			Waveguide: waveguide(d),
			LengthCM:  length(d),
		}
	}
}

// buildMesh lays tiles in a rows × cols rectangle. Each row (when it has at
// least two tiles) is a wavelength-routed bus carrying one link per reader
// in the row; columns likewise. Waveguide IDs: rows are 0..rows−1, columns
// rows..rows+cols−1.
func (n *Network) buildMesh() error {
	rows, cols, err := n.cfg.meshShape()
	if err != nil {
		return err
	}
	n.rows, n.cols = rows, cols
	pitch := n.cfg.pitchCM()
	tile := func(r, c int) int { return r*cols + c }
	// Each bus of m ≥ 2 members carries m links of m − 1 writers; the links
	// and the writer lists are sized up front.
	nlinks, nwriters := 0, 0
	if cols >= 2 {
		nlinks += rows * cols
		nwriters += rows * cols * (cols - 1)
	}
	if rows >= 2 {
		nlinks += rows * cols
		nwriters += rows * cols * (rows - 1)
	}
	n.links = make([]Link, 0, nlinks)
	writers := make([]int, 0, nwriters)
	addLink := func(reader, waveguide int, members []int) {
		start := len(writers)
		for _, t := range members {
			if t != reader {
				writers = append(writers, t)
			}
		}
		n.links = append(n.links, Link{
			ID:        len(n.links),
			Reader:    reader,
			Writers:   writers[start:len(writers):len(writers)],
			Waveguide: waveguide,
			LengthCM:  pitch * float64(len(members)-1),
		})
	}
	members := make([]int, max(rows, cols))
	if cols >= 2 {
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				members[c] = tile(r, c)
			}
			for c := 0; c < cols; c++ {
				addLink(tile(r, c), r, members[:cols])
			}
		}
	}
	if rows >= 2 {
		for c := 0; c < cols; c++ {
			for r := 0; r < rows; r++ {
				members[r] = tile(r, c)
			}
			for r := 0; r < rows; r++ {
				addLink(tile(r, c), rows+c, members[:rows])
			}
		}
	}
	return nil
}

// finishLinks runs the wavelength-allocation pass over shared waveguides,
// derives each link's configuration and validates it.
func (n *Network) finishLinks() error {
	if err := n.allocateWavelengths(); err != nil {
		return err
	}
	for i := range n.links {
		if err := n.deriveConfig(&n.links[i]); err != nil {
			return err
		}
	}
	return nil
}

// deriveConfig re-scopes the base configuration to one link and stamps its
// cache fingerprint.
func (n *Network) deriveConfig(l *Link) error {
	cfg := n.cfg.Base // value copy; the InterfacePowers map is shared read-only
	ch := &cfg.Channel
	base := n.cfg.Base.Channel
	ch.Waveguide.LengthCM = l.LengthCM
	ch.Topo.ONIs = len(l.Writers) + 1
	ch.Topo.Wavelengths = len(l.Lambdas)
	ch.Grid = subgrid(base.Grid, l.Lambdas)
	if n.cfg.Kind != Bus {
		// Each link is one physical waveguide; network totals come from
		// Aggregate, not the single-link interconnect scaler.
		ch.Topo.WaveguidesPerChannel = 1
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("noc: link %d (reader %d): %w", l.ID, l.Reader, err)
	}
	l.Config = cfg
	l.Fingerprint = core.Fingerprint(cfg)
	return nil
}

// Kind returns the topology family.
func (n *Network) Kind() Kind { return n.cfg.Kind }

// Tiles returns the tile count.
func (n *Network) Tiles() int { return n.cfg.Tiles }

// MeshShape returns the rows × cols factorization (0, 0 for non-mesh
// networks).
func (n *Network) MeshShape() (rows, cols int) { return n.rows, n.cols }

// Links returns a copy of the link table in ID order. The copy is deep on
// the mutable fields (Writers, Lambdas), upholding the Network's
// immutability contract against caller edits.
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

// Link returns the link with the given ID (a deep copy, like Links).
func (n *Network) Link(id int) (Link, error) {
	if id < 0 || id >= len(n.links) {
		return Link{}, fmt.Errorf("noc: link %d out of range [0,%d)", id, len(n.links))
	}
	return n.links[id].clone(), nil
}

// clone deep-copies the link's mutable fields (slices and the interface
// power table, which the network's links otherwise share read-only).
func (l Link) clone() Link {
	l.Writers = append([]int(nil), l.Writers...)
	l.Lambdas = append([]int(nil), l.Lambdas...)
	if l.Config.InterfacePowers != nil {
		m := make(map[string]core.InterfacePower, len(l.Config.InterfacePowers))
		for k, v := range l.Config.InterfacePowers {
			m[k] = v
		}
		l.Config.InterfacePowers = m
	}
	return l
}

// Waveguides returns, per waveguide ID, the IDs of the links sharing it.
func (n *Network) Waveguides() map[int][]int {
	out := make(map[int][]int, len(n.waveguideLinks))
	for wg, ids := range n.waveguideLinks {
		out[wg] = append([]int(nil), ids...)
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
