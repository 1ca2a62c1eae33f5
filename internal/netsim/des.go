package netsim

import (
	"context"
	"sort"
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

// netEvent is a message arriving at hop `hop` of its route. seq breaks time
// ties among forwarded hops first-scheduled-first-served, which pins the
// event order — and with it every statistic — for a fixed trace.
type netEvent struct {
	at  float64
	seq uint64
	msg int32 // index into the trace
	hop int16 // position in the message's route
}

// before orders hop arrivals by (time, schedule sequence).
func (e netEvent) before(o netEvent) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// simulate is the discrete-event loop both simulators run on. Every message
// of tr crosses routes[src][dst] link by link; each link is one MWSR server
// that serializes transfers in arrival order. A transfer starts when the
// medium is free, after servers[l].hold of arbitration, lasts what decide
// grants, and reaches the next hop token + prop later. With maxQueue > 0 an
// arrival finding maxQueue messages on the link is dropped. The loop is
// sequential: a fixed trace and decide give bit-identical results.
func simulate(ctx context.Context, tr Trace, routes [][][]int, servers []server, maxQueue int,
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

	// Trace arrivals enter in trace order, ahead of forwarded hops at the
	// same instant; only forwarded hops go through the heap.
	var hops simHeap[netEvent]
	var seq uint64
	for next, processed := 0, 0; next < len(tr) || len(hops) > 0; processed++ {
		if processed%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return tally{}, err
			}
		}
		var ev netEvent
		if next < len(tr) && (len(hops) == 0 || tr[next].TimeSec <= hops[0].at) {
			ev = netEvent{at: tr[next].TimeSec, msg: int32(next)}
			next++
		} else {
			ev = hops.pop()
		}
		m := &tr[ev.msg]
		route := routes[m.Src][m.Dst]
		l := route[ev.hop]
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
		g, err := decide(l, m, start)
		if err != nil {
			return tally{}, err
		}
		wait := start - ev.at
		nextFree[l] = start + g.sec
		lt.busy += g.sec
		lt.wait += wait
		lt.served++
		waited[ev.msg] += wait
		if head[l] > 4096 && head[l]*2 > len(dep) {
			// Compact the occupancy FIFO once the dead prefix dominates.
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
		if int(ev.hop)+1 < len(route) {
			hops.push(netEvent{at: out, seq: seq, msg: ev.msg, hop: ev.hop + 1})
			seq++
			continue
		}
		t.delivered++
		t.deliveredBits += int64(m.Bits)
		t.hops += int64(len(route))
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
		sort.Float64s(latencies)
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

// before orders recorded arrivals by time alone; ties keep the heap's
// deterministic layout order.
func (e TraceEvent) before(o TraceEvent) bool { return e.TimeSec < o.TimeSec }

// generate is the trace-generator loop both workloads run on. Each source
// emits its first arrival as next(src, 0); every recorded arrival schedules
// its source's next one, until limit arrivals are recorded. next never
// returns an arrival earlier than now, so the heap pops the trace in time
// order.
func generate(ctx context.Context, sources []int, limit int, next func(src int, now float64) TraceEvent) (Trace, error) {
	events := make(simHeap[TraceEvent], 0, len(sources))
	for _, s := range sources {
		events.push(next(s, 0))
	}
	tr := make(Trace, 0, limit)
	for len(events) > 0 && len(tr) < limit {
		if len(tr)%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		ev := events.pop()
		events.push(next(ev.Src, ev.TimeSec))
		tr = append(tr, ev)
	}
	return tr, nil
}
