package netsim

import (
	"context"
	"math"
	"math/bits"
	"slices"

	"photonoc/internal/noc"
)

// server is one link's constant timing model in the event loop.
type server struct {
	// hold is arbitration that occupies the medium before every transfer.
	hold float64
	// token and prop are pipeline latency after every transfer: they delay
	// the message but leave the medium free.
	token, prop float64
	// idleW is the laser power the link holds before its first transfer.
	idleW float64
	// perBit is the grant of every transfer when simulate has no decide,
	// with sec the seconds per payload bit.
	perBit grant
}

// grant is the configuration decided for one transfer: the seconds it
// occupies the medium, the power drawn while sending, and the laser power
// the link holds afterwards, until its next transfer.
type grant struct {
	sec                 float64
	laserW, modW, intfW float64
	heldW               float64
}

// linkTally is one link's share of a simulation.
type linkTally struct {
	served, drops int64
	busy          float64 // seconds spent transmitting
	wait          float64 // summed queue wait of the served messages
	maxDepth      int     // largest occupancy (waiting + in service) seen
	laserJ, sendJ float64 // laser, and modulator + interface, energy while sending
	heldW         float64 // laser power held after the latest transfer
}

// tally is what one simulation measured.
type tally struct {
	links                                           []linkTally
	delivered, deliveredBits, dropped, hops, misses int64
	// horizon is the end of the last transmission or delivery.
	horizon float64
	// Latency statistics of the delivered messages, and their mean total
	// queue wait.
	mean, p50, p95, p99, max, meanWait float64
	// Run energy: laser, modulator and interface while sending, summed in
	// processing order, and each link's held laser power over its idle time.
	laserJ, modJ, intfJ, idleJ float64
}

// netEvent is one heap entry of the event loop: a message forwarded to the
// second and last link of its route, link `hop`. seq breaks time ties
// among forwarded hops first-scheduled-first-served, which pins the event
// order — and with it every statistic — for a fixed trace.
type netEvent struct {
	at  float64
	seq uint64
	msg int32 // index into the trace
	hop int32 // the onward link
}

// publishEvery is how many arrivals the generator writes between two
// publications of its ready count to an overlapped event loop.
const publishEvery = 1024

// simulate is the discrete-event loop both simulators run on. Every message
// of tr, its endpoints in [0, tiles), crosses the at most two links
// router.Route(src, dst) names, computed once at its arrival; each link is
// one MWSR server that serializes transfers in arrival order. A transfer
// starts when the medium is free, after servers[l].hold of arbitration,
// lasts what decide grants, and reaches the next hop token + prop later.
// A nil decide grants every transfer its link's perBit, scaled by the
// message's bits: the network's grants are static, and a call in the loop
// would make it spill its live values around every transfer. With
// maxQueue > 0 an arrival finding maxQueue messages on the link is
// dropped. The loop is sequential: a fixed trace and decide give
// bit-identical results.
//
// A nil ready means tr is complete and already validated. Otherwise tr is
// being written by a concurrent generate: the loop reads tr[i] only once a
// count above i has been received from ready, and validates each newly
// published chunk before reading it.
func simulate(ctx context.Context, tr Trace, ready <-chan int, tiles int, router noc.Router, servers []server, maxQueue int,
	decide func(link int, ev *TraceEvent, start float64) (grant, error)) (tally, error) {
	t := tally{links: make([]linkTally, len(servers))}
	for l := range t.links {
		t.links[l].heldW = servers[l].idleW
	}
	nextFree := make([]float64, len(servers))
	// departed[l] holds the departure times of messages still occupying
	// link l, oldest first — a FIFO read only for the occupancy at arrivals.
	departed := make([][]float64, len(servers))
	head := make([]int, len(servers))
	waited := make([]float64, len(tr)) // each message's queue wait so far
	latencies := make([]float64, 0, len(tr))
	var waitSum float64
	avail := len(tr) // arrivals tr[:avail] are written
	if ready != nil {
		avail = 0
	}

	// Trace arrivals enter in trace order, ahead of forwarded hops at the
	// same instant; only forwarded hops go through the heap.
	var hops eventHeap
	var seq uint64
	for next, processed := 0, 0; next < len(tr) || len(hops) > 0; processed++ {
		if processed%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return tally{}, err
			}
		}
		if next == avail && next < len(tr) {
			var written int
			select {
			case written = <-ready:
			case <-ctx.Done():
				return tally{}, ctx.Err()
			}
			// Generated arrivals are checked as replayed ones are: a
			// degenerate rate can push their times to +Inf.
			if err := tr.validateRange(tiles, avail, written); err != nil {
				return tally{}, err
			}
			avail = written
		}
		// l is the link the message arrives at, onward the link it is
		// forwarded to after it (−1 on its last hop), and crossed the links
		// it has crossed once l serves it.
		var ev netEvent
		var l, onward int
		crossed := int64(1)
		if next < len(tr) && (len(hops) == 0 || tr[next].TimeSec <= hops[0].at) {
			ev = netEvent{at: tr[next].TimeSec, msg: int32(next)}
			next++
			l, onward = router.Route(tr[ev.msg].Src, tr[ev.msg].Dst)
		} else {
			ev = hops.pop()
			l, onward, crossed = int(ev.hop), -1, 2
		}
		m := &tr[ev.msg]
		lt := &t.links[l]

		// Drop the expired occupants, then test the buffer bound.
		dep := departed[l]
		for head[l] < len(dep) && dep[head[l]] <= ev.at {
			head[l]++
		}
		occupancy := len(dep) - head[l]
		if maxQueue > 0 && occupancy >= maxQueue {
			lt.drops++
			t.dropped++
			continue
		}
		lt.maxDepth = max(lt.maxDepth, occupancy+1)

		start := ev.at
		if nextFree[l] > start {
			start = nextFree[l]
		}
		start += servers[l].hold
		g := servers[l].perBit
		if decide == nil {
			g.sec *= float64(m.Bits)
		} else {
			var err error
			if g, err = decide(l, m, start); err != nil {
				return tally{}, err
			}
		}
		wait := start - ev.at
		nextFree[l] = start + g.sec
		lt.busy += g.sec
		lt.wait += wait
		lt.served++
		waited[ev.msg] += wait
		if head[l] > 0 && head[l]*2 >= len(dep) {
			// Compact the occupancy FIFO once the dead prefix is at least
			// half of it, so it stays within twice the live occupancy.
			departed[l] = append(dep[:0], dep[head[l]:]...)
			head[l] = 0
		}
		departed[l] = append(departed[l], nextFree[l])

		laserE, modE, intfE := g.laserW*g.sec, g.modW*g.sec, g.intfW*g.sec
		t.laserJ += laserE
		t.modJ += modE
		t.intfJ += intfE
		lt.laserJ += laserE
		lt.sendJ += modE + intfE
		lt.heldW = g.heldW

		out := start + g.sec + servers[l].token + servers[l].prop
		if onward >= 0 {
			hops.push(netEvent{at: out, seq: seq, msg: ev.msg, hop: int32(onward)})
			seq++
			continue
		}
		t.delivered++
		t.deliveredBits += int64(m.Bits)
		t.hops += crossed
		waitSum += waited[ev.msg]
		latencies = append(latencies, out-m.TimeSec)
		if m.DeadlineSec > 0 && out > m.DeadlineSec {
			t.misses++
		}
		t.horizon = max(t.horizon, out)
	}

	// The horizon covers every transmission, not just deliveries: with
	// bounded queues a message can be served on an early hop after the last
	// delivery and then be dropped downstream; clipping the horizon at the
	// last delivery would report utilizations above 1.
	for l := range t.links {
		t.horizon = max(t.horizon, nextFree[l])
	}
	for l := range t.links {
		lt := &t.links[l]
		if idle := t.horizon - lt.busy; idle > 0 && lt.heldW > 0 {
			t.idleJ += lt.heldW * idle
		}
	}

	if n := len(latencies); n > 0 {
		sortNonNegative(latencies, waited) // waited is spent: reuse it
		var sum float64
		for _, l := range latencies {
			sum += l
		}
		t.mean = sum / float64(n)
		t.p50 = percentile(latencies, 0.50)
		t.p95 = percentile(latencies, 0.95)
		t.p99 = percentile(latencies, 0.99)
		t.max = latencies[n-1]
		t.meanWait = waitSum / float64(n)
	}
	return t, nil
}

// sortBits is the width of sortNonNegative's bucket pass: 8,192 buckets.
// On the latencies of 20k-message runs at half saturation 13 bits sorted
// 9–22% faster than 12 (2-CPU x86-64 host, go1.24), and 8,192 int32
// counts take the 32 KiB of stack that 4,096 int counts would.
const sortBits = 13

// sortNonNegative sorts keys ascending, in the order slices.Sort gives.
// For non-negative floats the IEEE-754 bit patterns order like the values,
// and the latencies of a validated trace are finite and non-negative. One
// MSD pass distributes the keys into buckets by the sortBits bits that
// start at the highest bit on which they differ (the bits above it every
// key shares), so each bucket holds a range of keys below the next
// bucket's; slices.Sort then orders each bucket. At half saturation a
// single-hop run's latencies hold a tie block of about half the keys
// (every message that found its link idle), which slices.Sort orders in
// linear time. scratch must be at least as long as keys.
func sortNonNegative(keys, scratch []float64) {
	n := len(keys)
	if n < 2 {
		return
	}
	if n > math.MaxInt32 { // beyond the bucket counts
		slices.Sort(keys)
		return
	}
	and, or := ^uint64(0), uint64(0)
	for _, k := range keys {
		b := math.Float64bits(k)
		and &= b
		or |= b
	}
	if and == or {
		return // every key is the same
	}
	shift := max(bits.Len64(and^or)-sortBits, 0)
	var ends [1 << sortBits]int32
	for _, k := range keys {
		ends[math.Float64bits(k)>>shift&(1<<sortBits-1)]++
	}
	sum := int32(0)
	for i, c := range ends {
		ends[i] = sum // the bucket's start until the scatter moves it to its end
		sum += c
	}
	dst := scratch[:n]
	for _, k := range keys {
		b := math.Float64bits(k) >> shift & (1<<sortBits - 1)
		dst[ends[b]] = k
		ends[b]++
	}
	start := 0
	for _, e := range ends {
		end := int(e)
		if end-start > 1 {
			slices.Sort(dst[start:end])
		}
		start = end
	}
	copy(keys, dst)
}

// generate is the trace-generator loop both workloads run on: it fills tr
// in time order. Each source emits its first arrival as next(src, 0);
// every recorded arrival draws its source's next one. next never returns
// an arrival earlier than now, so a tournament tree over the pending
// arrivals, one per source, keyed by (time, position in sources), pops the
// trace in time order; arrivals at equal times pop in the order of
// sources. With a non-nil ready, generate sends the count of arrivals
// written so far every publishEvery arrivals and once at the end; ready
// must buffer every send (len(tr)/publishEvery + 1).
func generate(ctx context.Context, sources []int, tr Trace, next func(src int, now float64) TraceEvent, ready chan<- int) error {
	pending := make([]TraceEvent, len(sources))
	for i, s := range sources {
		pending[i] = next(s, 0)
	}
	t := newArrivalTree(pending)
	for i := range tr {
		if i%publishEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			if ready != nil && i > 0 {
				ready <- i
			}
		}
		p := t.winner()
		tr[i] = pending[p]
		pending[p] = next(sources[p], tr[i].TimeSec)
		t.replay(pending[p].TimeSec)
	}
	if ready != nil {
		ready <- len(tr)
	}
	return nil
}

// record generates a limit-arrival trace of the workload.
func record(ctx context.Context, limit int, sources []int, next func(src int, now float64) TraceEvent) (Trace, error) {
	tr := make(Trace, limit)
	if err := generate(ctx, sources, tr, next, nil); err != nil {
		return nil, err
	}
	return tr, nil
}

// overlap is record followed by run, with generation overlapping the
// simulation: generate fills the trace on its own goroutine while run
// simulates it, reading what ready has published. The result is run's. The
// generator is stopped and waited for before overlap returns, so no
// goroutine outlives the call.
func overlap(ctx context.Context, limit int, sources []int, next func(src int, now float64) TraceEvent,
	run func(ctx context.Context, tr Trace, ready <-chan int) (NetResults, error)) (NetResults, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	tr := make(Trace, limit)
	ready := make(chan int, limit/publishEvery+1) // one slot per send: generate never blocks
	generated := make(chan struct{})
	go func() {
		defer close(generated)
		// generate fails only once ctx is done, before its last
		// publication, so run, waiting for arrivals never published,
		// fails too: its error is run's to report.
		_ = generate(ctx, sources, tr, next, ready)
	}()
	res, err := run(ctx, tr, ready)
	cancel()
	<-generated
	return res, err
}
