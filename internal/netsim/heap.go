package netsim

import (
	"math"
	"math/bits"
)

// eventHeap is the min-heap of netEvents, keyed by (at, seq), that the
// discrete-event loop runs its forwarded hops on. The key is a strict total
// order, so the pop sequence is fixed by the keys alone, whatever the heap
// layout. The sifts move a hole instead of swapping, and the comparison is
// a concrete method the compiler inlines.
type eventHeap []netEvent

// before orders events by time, then by sequence.
func (e *netEvent) before(o *netEvent) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

func (h *eventHeap) push(ev netEvent) {
	*h = append(*h, ev)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !ev.before(&s[i]) {
			break
		}
		s[j] = s[i]
		j = i
	}
	s[j] = ev
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() netEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	ev := s[n]
	*h = s[:n]
	// Sift the last event down from the root.
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if k := j + 1; k < n && s[k].before(&s[j]) {
			j = k
		}
		if !s[j].before(&ev) {
			break
		}
		s[i] = s[j]
		i = j
	}
	s[i] = ev
	return top
}

// arrivalKey is one source's pending arrival in an arrivalTree: the IEEE-754
// bit pattern of its time, which orders like the time for the non-negative
// times the generator draws, and the source's position.
type arrivalKey struct{ at, pos uint64 }

// order returns the earlier and the later of a and b by (time, position),
// without a branch: which of two pending arrivals is earlier is a coin toss
// no branch predictor learns. The two keys compare as one 128-bit number,
// time above position; the subtraction's borrow is set when b is below a.
func order(a, b arrivalKey) (arrivalKey, arrivalKey) {
	_, borrow := bits.Sub64(b.pos, a.pos, 0)
	_, borrow = bits.Sub64(b.at, a.at, borrow)
	m := -borrow // all ones when b is earlier
	dAt, dPos := (a.at^b.at)&m, (a.pos^b.pos)&m
	return arrivalKey{a.at ^ dAt, a.pos ^ dPos}, arrivalKey{b.at ^ dAt, b.pos ^ dPos}
}

// arrivalTree is the trace generator's tournament (loser) tree over the
// pending arrivals, one per source position, keyed by (time, position): a
// strict total order, so arrivals at equal times pop in position order.
// Positions are the leaves n..2n-1 of an implicit binary tree whose node k
// has children 2k and 2k+1; entry k of each internal node k holds the key
// that lost the match there, and entry 0 the overall winner.
type arrivalTree []arrivalKey

// newArrivalTree plays the first tournament over the sources' first
// arrivals.
func newArrivalTree(pending []TraceEvent) arrivalTree {
	n := len(pending)
	t := make(arrivalTree, n)
	win := make([]arrivalKey, 2*n) // the winner below each node
	for p := range n {
		win[n+p] = arrivalKey{math.Float64bits(pending[p].TimeSec), uint64(p)}
	}
	for k := n - 1; k >= 1; k-- {
		win[k], t[k] = order(win[2*k], win[2*k+1])
	}
	if n > 0 {
		t[0] = win[1]
	}
	return t
}

// winner is the position whose pending arrival is earliest.
func (t arrivalTree) winner() int { return int(t[0].pos) }

// replay enters the winner's next arrival, at time at: one match per level
// on the winner's path to the root, each against the key stored there,
// which is the winner of the other side.
func (t arrivalTree) replay(at float64) {
	c := arrivalKey{math.Float64bits(at), t[0].pos}
	for k := (c.pos + uint64(len(t))) / 2; k >= 1; k /= 2 {
		c, t[k] = order(c, t[k])
	}
	t[0] = c
}
