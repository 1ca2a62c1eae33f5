package noc

import (
	"fmt"
	"slices"
	"testing"

	"photonoc/internal/core"
)

// referenceRoutes tabulates the routes pair by pair, apart from Router:
// routes[src][dst] lists, in order, the link IDs a message from src crosses
// to reach dst (nil on the diagonal). Bus, Crossbar and Ring are
// single-hop on the destination's link; Mesh routes XY, the row bus to the
// destination's column and then the column bus down to the destination.
func referenceRoutes(kind Kind, tiles, rows, cols int) [][][]int {
	routes := make([][][]int, tiles)
	for s := range routes {
		routes[s] = make([][]int, tiles)
	}
	switch kind {
	case Bus, Crossbar, Ring:
		for s := 0; s < tiles; s++ {
			for d := 0; d < tiles; d++ {
				if s != d {
					routes[s][d] = []int{d}
				}
			}
		}
	case Mesh:
		// Link IDs in builder order: row links first (when cols ≥ 2), then
		// column links (when rows ≥ 2).
		rowLink := func(r, c int) int { return r*cols + c }
		colBase := 0
		if cols >= 2 {
			colBase = rows * cols
		}
		colLink := func(r, c int) int { return colBase + c*rows + r }
		for s := 0; s < tiles; s++ {
			r1, c1 := s/cols, s%cols
			for d := 0; d < tiles; d++ {
				if s == d {
					continue
				}
				r2, c2 := d/cols, d%cols
				switch {
				case r1 == r2:
					routes[s][d] = []int{rowLink(r1, c2)}
				case c1 == c2:
					routes[s][d] = []int{colLink(r2, c1)}
				default:
					routes[s][d] = []int{rowLink(r1, c2), colLink(r2, c2)}
				}
			}
		}
	}
	return routes
}

// referenceLink is one link as the layout and allocation loops below lay it
// out, apart from Build.
type referenceLink struct {
	reader, waveguide int
	writers, lambdas  []int
}

// referenceLinks lays out the links of a network link by link, in Build's
// ID order, and then partitions a count-channel grid over each waveguide.
// Bus, Crossbar and Ring give tile d the reader link d, written by every
// other tile, on waveguide d (Ring: all on waveguide 0). A mesh gives each
// row of at least two tiles one link per reader on waveguide r, and then
// each column of at least two tiles one link per reader on waveguide
// rows + c. A waveguide's k links take contiguous blocks of the grid in ID
// order, the first count % k of them one channel wider than the rest.
func referenceLinks(kind Kind, tiles, rows, cols, count int) []referenceLink {
	var links []referenceLink
	add := func(reader, waveguide int, members []int) {
		var writers []int
		for _, t := range members {
			if t != reader {
				writers = append(writers, t)
			}
		}
		links = append(links, referenceLink{reader: reader, waveguide: waveguide, writers: writers})
	}
	switch kind {
	case Bus, Crossbar, Ring:
		all := make([]int, tiles)
		for t := range all {
			all[t] = t
		}
		for d := 0; d < tiles; d++ {
			waveguide := d
			if kind == Ring {
				waveguide = 0
			}
			add(d, waveguide, all)
		}
	case Mesh:
		if cols >= 2 {
			for r := 0; r < rows; r++ {
				var row []int
				for c := 0; c < cols; c++ {
					row = append(row, r*cols+c)
				}
				for c := 0; c < cols; c++ {
					add(r*cols+c, r, row)
				}
			}
		}
		if rows >= 2 {
			for c := 0; c < cols; c++ {
				var col []int
				for r := 0; r < rows; r++ {
					col = append(col, r*cols+c)
				}
				for r := 0; r < rows; r++ {
					add(r*cols+c, rows+c, col)
				}
			}
		}
	}
	onWaveguide := make(map[int][]int)
	for id, l := range links {
		onWaveguide[l.waveguide] = append(onWaveguide[l.waveguide], id)
	}
	for _, ids := range onWaveguide {
		k := len(ids)
		q, r := count/k, count%k
		next := 0
		for pos, id := range ids {
			size := q
			if pos < r {
				size++
			}
			for i := 0; i < size; i++ {
				links[id].lambdas = append(links[id].lambdas, next+i)
			}
			next += size
		}
	}
	return links
}

// checkLinksMatchReference compares every link of net, and its waveguide
// grouping, with referenceLinks.
func checkLinksMatchReference(t *testing.T, name string, net *Network, count int) {
	t.Helper()
	rows, cols := net.MeshShape()
	ref := referenceLinks(net.Kind(), net.Tiles(), rows, cols, count)
	if net.NumLinks() != len(ref) {
		t.Fatalf("%s: %d links, reference %d", name, net.NumLinks(), len(ref))
	}
	onWaveguide := make(map[int][]int)
	for id, want := range ref {
		l := net.LinkRef(id)
		if l.ID != id || l.Reader != want.reader || l.Waveguide != want.waveguide {
			t.Fatalf("%s: link %d is (ID %d, reader %d, waveguide %d), reference (reader %d, waveguide %d)",
				name, id, l.ID, l.Reader, l.Waveguide, want.reader, want.waveguide)
		}
		if w := l.Writers(); !slices.Equal(w, want.writers) {
			t.Fatalf("%s: link %d writers %v, reference %v", name, id, w, want.writers)
		}
		if !slices.Equal(l.Lambdas, want.lambdas) {
			t.Fatalf("%s: link %d lambdas %v, reference %v", name, id, l.Lambdas, want.lambdas)
		}
		onWaveguide[want.waveguide] = append(onWaveguide[want.waveguide], id)
	}
	got := net.Waveguides()
	if len(got) != len(onWaveguide) {
		t.Fatalf("%s: %d waveguides, reference %d", name, len(got), len(onWaveguide))
	}
	for wg, ids := range onWaveguide {
		if !slices.Equal(got[wg], ids) {
			t.Fatalf("%s: waveguide %d carries links %v, reference %v", name, wg, got[wg], ids)
		}
	}
}

// oracleConfigs lists every configuration the oracle test builds: each
// kind at every tile count from 2 to 64, every column count that divides a
// mesh's tiles, and the 512-tile bus and crossbar. Counts the 16-wavelength
// base grid cannot serve fail Build and are skipped by the caller.
func oracleConfigs() []Config {
	base := core.DefaultConfig()
	var out []Config
	for tiles := 2; tiles <= 64; tiles++ {
		for _, kind := range []Kind{Bus, Crossbar, Ring} {
			out = append(out, Config{Kind: kind, Tiles: tiles, Base: base})
		}
		out = append(out, Config{Kind: Mesh, Tiles: tiles, Base: base})
		for cols := 1; cols <= tiles; cols++ {
			if tiles%cols == 0 {
				out = append(out, Config{Kind: Mesh, Tiles: tiles, Columns: cols, Base: base})
			}
		}
	}
	return append(out,
		Config{Kind: Bus, Tiles: MaxTiles, Base: base},
		Config{Kind: Crossbar, Tiles: MaxTiles, Base: base})
}

// TestRoutesMatchReference is the routing oracle: on every configuration of
// oracleConfigs that builds, Router.Route and Network.Route return the
// reference table's path for every pair, and every link's reader,
// waveguide, writers and wavelength block equal referenceLinks.
func TestRoutesMatchReference(t *testing.T) {
	built := 0
	for _, cfg := range oracleConfigs() {
		net, err := Build(cfg)
		if err != nil {
			continue
		}
		built++
		name := fmt.Sprintf("%v/%d/cols=%d", cfg.Kind, cfg.Tiles, cfg.Columns)
		rows, cols := net.MeshShape()
		ref := referenceRoutes(cfg.Kind, cfg.Tiles, rows, cols)
		router := net.Router()
		for s := 0; s < cfg.Tiles; s++ {
			for d := 0; d < cfg.Tiles; d++ {
				got, err := net.Route(s, d)
				if err != nil {
					t.Fatalf("%s: Route(%d, %d): %v", name, s, d, err)
				}
				if !slices.Equal(got, ref[s][d]) || (got == nil) != (ref[s][d] == nil) {
					t.Fatalf("%s: Route(%d, %d) = %v, reference %v", name, s, d, got, ref[s][d])
				}
				if s == d {
					continue
				}
				rule := []int{-1, -1}
				rule[0], rule[1] = router.Route(s, d)
				if rule[1] < 0 {
					rule = rule[:1]
				}
				if !slices.Equal(rule, ref[s][d]) {
					t.Fatalf("%s: Router.Route(%d, %d) = %v, reference %v", name, s, d, rule, ref[s][d])
				}
			}
		}
		checkLinksMatchReference(t, name, net, cfg.Base.Channel.Grid.Count)
	}
	// Bus and crossbar build at every count, ring up to the grid's 16
	// channels, and every mesh shape whose row and column fit the grid.
	if built < 2*63+15+63 {
		t.Fatalf("only %d oracle configurations built", built)
	}
}
