package netsim

// eventHeap is the min-heap of netEvents, keyed by (at, seq), that both the
// trace generator (pending source arrivals) and the discrete-event loop
// (forwarded hops) run on. The key is a strict total order, so the pop
// sequence is fixed by the keys alone, whatever the heap layout. The sifts
// move a hole instead of swapping, and the comparison is a concrete method
// the compiler inlines.
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
	last := s[n]
	*h = s[:n]
	if n > 0 {
		(*h).replaceTop(last)
	}
	return top
}

// replaceTop overwrites the earliest event with ev and restores the heap
// order: a pop followed by a push, in one sift.
func (h eventHeap) replaceTop(ev netEvent) {
	n := len(h)
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if k := j + 1; k < n && h[k].before(&h[j]) {
			j = k
		}
		if !h[j].before(&ev) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = ev
}
