package noc

import "fmt"

// buildRoutes derives the routing table: routes[src][dst] is the ordered
// sequence of link IDs a message from src crosses to reach dst. Bus,
// Crossbar and Ring are single-hop (every tile writes on the destination's
// link); Mesh uses XY routing — the row bus to the destination's column,
// then the column bus down to the destination — so a route is at most two
// links.
func (n *Network) buildRoutes() error {
	t := n.cfg.Tiles
	// Every route is a sub-slice of one hop array (a mesh route has at most
	// two hops), and the rows are views into one table of t·t routes.
	maxHops := 1
	if n.cfg.Kind == Mesh {
		maxHops = 2
	}
	hops := make([]int, 0, maxHops*t*(t-1))
	table := make([][]int, t*t)
	n.routes = make([][][]int, t)
	for s := range n.routes {
		n.routes[s] = table[s*t : (s+1)*t : (s+1)*t]
	}
	route := func(s, d int, ids ...int) {
		start := len(hops)
		hops = append(hops, ids...)
		n.routes[s][d] = hops[start:len(hops):len(hops)]
	}

	switch n.cfg.Kind {
	case Bus, Crossbar, Ring:
		// Link d is the reader-d channel, in builder order.
		for s := 0; s < t; s++ {
			for d := 0; d < t; d++ {
				if s != d {
					route(s, d, d)
				}
			}
		}
	case Mesh:
		rows, cols := n.rows, n.cols
		// Link IDs in builder order: row links first (when cols ≥ 2), then
		// column links (when rows ≥ 2).
		rowLink := func(r, c int) int { return r*cols + c }
		colBase := 0
		if cols >= 2 {
			colBase = rows * cols
		}
		colLink := func(r, c int) int { return colBase + c*rows + r }
		for s := 0; s < t; s++ {
			r1, c1 := s/cols, s%cols
			for d := 0; d < t; d++ {
				if s == d {
					continue
				}
				r2, c2 := d/cols, d%cols
				switch {
				case r1 == r2:
					route(s, d, rowLink(r1, c2))
				case c1 == c2:
					route(s, d, colLink(r2, c1))
				default:
					route(s, d, rowLink(r1, c2), colLink(r2, c2))
				}
			}
		}
	}

	return n.verifyRoutes()
}

// verifyRoutes asserts the routing invariant on the freshly built table:
// every off-diagonal pair is routed, each hop's writer set admits the
// arriving tile, and the final hop's reader is the destination.
func (n *Network) verifyRoutes() error {
	t := n.cfg.Tiles
	for s := 0; s < t; s++ {
		for d := 0; d < t; d++ {
			if s == d {
				continue
			}
			path := n.routes[s][d]
			if len(path) == 0 {
				return fmt.Errorf("noc: no route from %d to %d", s, d)
			}
			at := s
			for hop, id := range path {
				if id < 0 || id >= len(n.links) {
					return fmt.Errorf("noc: route %d→%d hop %d references link %d outside [0,%d)", s, d, hop, id, len(n.links))
				}
				l := &n.links[id]
				if !containsTile(l.Writers, at) {
					return fmt.Errorf("noc: route %d→%d hop %d: tile %d is not a writer of link %d", s, d, hop, at, id)
				}
				at = l.Reader
			}
			if at != d {
				return fmt.Errorf("noc: route %d→%d terminates at tile %d", s, d, at)
			}
		}
	}
	return nil
}

// Route returns the link IDs a message from src crosses to reach dst
// (a copy; nil when src == dst).
func (n *Network) Route(src, dst int) ([]int, error) {
	t := n.cfg.Tiles
	if src < 0 || src >= t || dst < 0 || dst >= t {
		return nil, fmt.Errorf("noc: route endpoints (%d→%d) outside [0,%d)", src, dst, t)
	}
	if src == dst {
		return nil, nil
	}
	return append([]int(nil), n.routes[src][dst]...), nil
}

func containsTile(tiles []int, t int) bool {
	for _, x := range tiles {
		if x == t {
			return true
		}
	}
	return false
}
