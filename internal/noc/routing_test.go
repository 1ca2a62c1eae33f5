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
// reference table's path for every pair, and every link's writer list is
// strictly ascending (the order the route check's binary search relies
// on).
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
		for id := 0; id < net.NumLinks(); id++ {
			w := net.LinkRef(id).Writers
			for i := 1; i < len(w); i++ {
				if w[i] <= w[i-1] {
					t.Fatalf("%s: link %d writers %v not strictly ascending", name, id, w)
				}
			}
		}
	}
	// Bus and crossbar build at every count, ring up to the grid's 16
	// channels, and every mesh shape whose row and column fit the grid.
	if built < 2*63+15+63 {
		t.Fatalf("only %d oracle configurations built", built)
	}
}
