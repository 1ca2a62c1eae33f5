package noc

import "fmt"

// Router is a network's routing rule: it maps a (src, dst) tile pair to
// the at most two link IDs a message crosses, in closed form. The zero
// Router is the single-hop rule of Bus, Crossbar and Ring (every tile
// writes on the destination's link, link dst); a mesh Router routes XY —
// the row bus to the destination's column, then the column bus down to the
// destination.
type Router struct {
	rows, cols int // mesh shape; zero for the single-hop rule
}

// Route returns the link IDs a message from src to dst crosses in order;
// second is −1 on a single-hop route. src and dst must be distinct tiles
// of the network the Router came from.
func (r Router) Route(src, dst int) (first, second int) {
	if r.cols == 0 {
		return dst, -1
	}
	// Link IDs in builder order: row links first (when cols ≥ 2), then
	// column links (when rows ≥ 2). Within a row, or on a one-row or
	// one-column mesh, the link is the destination's reader link, dst.
	r1, c1 := src/r.cols, src%r.cols
	r2, c2 := dst/r.cols, dst%r.cols
	colBase := 0
	if r.cols >= 2 {
		colBase = r.rows * r.cols
	}
	switch {
	case r1 == r2:
		return dst, -1
	case c1 == c2:
		return colBase + c1*r.rows + r2, -1
	default:
		return r1*r.cols + c2, colBase + c2*r.rows + r2
	}
}

// Router returns the network's routing rule.
func (n *Network) Router() Router { return Router{rows: n.rows, cols: n.cols} }

// verifyRoutes asserts the routing invariant of the rule against the built
// links: on every off-diagonal pair, each hop's writer set admits the
// arriving tile, and the final hop's reader is the destination. A writer
// is a tile on the link's bus other than its reader, so each membership
// test is arithmetic and the whole check is O(T²).
func (n *Network) verifyRoutes() error {
	t := n.cfg.Tiles
	router := n.Router()
	for s := 0; s < t; s++ {
		for d := 0; d < t; d++ {
			if s == d {
				continue
			}
			first, second := router.Route(s, d)
			at := s
			for hop, id := range [2]int{first, second} {
				if hop == 1 && id < 0 {
					break
				}
				if id < 0 || id >= len(n.links) {
					return fmt.Errorf("noc: route %d→%d hop %d references link %d outside [0,%d)", s, d, hop, id, len(n.links))
				}
				l := &n.links[id]
				if !l.bus.has(at) || at == l.Reader {
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
	first, second := n.Router().Route(src, dst)
	if second < 0 {
		return []int{first}, nil
	}
	return []int{first, second}, nil
}
