package netsim

// heapItem orders the elements of a simHeap; before must be a strict
// ordering ("strictly earlier than").
type heapItem[E any] interface{ before(E) bool }

// simHeap is the typed min-heap shared by the trace generator
// (TraceEvent) and the discrete-event loop's forwarded hops (netEvent). The
// sift algorithm mirrors container/heap exactly — so pop order, including
// ties under the element's ordering, is unchanged from the historical
// per-type heaps — but push takes the concrete type: no per-event
// interface boxing allocation in the event hot loops.
type simHeap[E heapItem[E]] []E

func (h *simHeap[E]) push(ev E) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

func (h *simHeap[E]) pop() E {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	h.down(0, n)
	ev := (*h)[n]
	*h = (*h)[:n]
	return ev
}

func (h simHeap[E]) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h simHeap[E]) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].before(h[j1]) {
			j = j2
		}
		if !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
