package netsim

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"photonoc/internal/core"
	"photonoc/internal/noc"
)

// NetConfig drives one network-scale discrete-event simulation: a built
// topology, the per-link operating points chosen by noc.EvalSession.Decide
// (the engine layer solves them through its shared memo cache and passes them in,
// so the simulator's scheme/DAC decisions are bit-identical to the analytic
// evaluator's), and a synthetic workload drawn from a traffic matrix.
type NetConfig struct {
	// Net is the compiled topology the messages traverse.
	Net *noc.Network
	// Decisions are the per-link operating points in link-ID order, as
	// produced by noc.EvalSession.Decide. Every link must be feasible: an
	// infeasible link has no configured scheme to simulate.
	Decisions []noc.LinkDecision
	// Traffic is the row-normalized destination distribution each source
	// samples; nil means uniform. Only message generation reads it —
	// trace replays carry their own destinations.
	Traffic noc.Matrix
	// MessageBits is the payload per message (0 = 4 KiB, the analytic
	// model's default).
	MessageBits int
	// InjectionRateBitsPerSec is the offered payload per active tile.
	InjectionRateBitsPerSec float64
	// Messages is the number of messages to inject across all sources
	// (0 = 20000; at most MaxMessages).
	Messages int
	// Seed makes runs reproducible: same seed ⇒ bit-identical results.
	Seed int64
	// MaxQueueDepth bounds each link's occupancy (waiting + in service);
	// an arrival finding the buffer full is dropped and counted. 0 means
	// unbounded queues — the configuration that exposes saturation as
	// unbounded queue growth.
	MaxQueueDepth int
}

// validateSim checks the fields the replay core uses: the network, its
// decisions and the queue bound. Trace replays carry their own arrival
// times, destinations and payload sizes, so the workload-generation fields
// (Traffic, rate, Messages, MessageBits) are deliberately not required
// here — RunNetworkTrace accepts a zero-generation configuration.
func (c NetConfig) validateSim() (NetConfig, error) {
	if c.Net == nil {
		return c, fmt.Errorf("netsim: nil network")
	}
	if len(c.Decisions) != c.Net.NumLinks() {
		return c, fmt.Errorf("netsim: %d link decisions for %d links", len(c.Decisions), c.Net.NumLinks())
	}
	for i := range c.Decisions {
		if !c.Decisions[i].Feasible {
			return c, fmt.Errorf("netsim: link %d has no feasible scheme: %s", i, c.Decisions[i].InfeasibleReason)
		}
	}
	// A replay takes no message count of its own.
	if err := CheckCounts(0, c.MaxQueueDepth); err != nil {
		return c, err
	}
	return c, nil
}

// CheckCounts refuses the counts a network run cannot take: a negative
// maxQueueDepth, and a negative message count or one above MaxMessages (0
// is the default count). RunNetwork applies it; a caller that solves
// before it simulates can apply it first.
func CheckCounts(messages, maxQueueDepth int) error {
	if maxQueueDepth < 0 {
		return fmt.Errorf("netsim: negative max queue depth %d", maxQueueDepth)
	}
	if messages < 0 {
		return fmt.Errorf("netsim: message count %d must be positive", messages)
	}
	if messages > MaxMessages {
		return fmt.Errorf("netsim: %d messages exceed the bound of %d", messages, MaxMessages)
	}
	return nil
}

// withDefaults is validateSim plus the workload-generation fields
// RecordNetworkTrace consumes, with their defaults resolved.
func (c NetConfig) withDefaults() (NetConfig, error) {
	c, err := c.validateSim()
	if err != nil {
		return c, err
	}
	if c.Traffic != nil {
		if err := c.Traffic.Validate(c.Net.Tiles()); err != nil {
			return c, err
		}
	}
	if c.MessageBits == 0 {
		c.MessageBits = 4096 * 8
	}
	if c.MessageBits < 0 {
		return c, fmt.Errorf("netsim: message size %d must be positive", c.MessageBits)
	}
	if math.IsNaN(c.InjectionRateBitsPerSec) || math.IsInf(c.InjectionRateBitsPerSec, 0) || c.InjectionRateBitsPerSec <= 0 {
		return c, fmt.Errorf("netsim: injection rate %g must be a positive finite number", c.InjectionRateBitsPerSec)
	}
	if c.Messages == 0 {
		c.Messages = 20000
	}
	return c, CheckCounts(c.Messages, c.MaxQueueDepth)
}

// NetLinkStats is the per-link view of a network simulation.
type NetLinkStats struct {
	// Link is the link ID (noc.Link order).
	Link int
	// Messages served (drops excluded).
	Messages int64
	// Drops counts arrivals rejected by a full queue (MaxQueueDepth > 0).
	Drops int64
	// Utilization is the fraction of simulated time the link transmitted.
	Utilization float64
	// MeanQueueWaitSec is the mean arbitration wait of served messages.
	MeanQueueWaitSec float64
	// MeanQueueDepth is the time-averaged number of waiting messages
	// (the integral of the queue length over the run, by Little's law the
	// sum of all waits over the simulated time).
	MeanQueueDepth float64
	// MaxQueueDepth is the largest occupancy (waiting + in service) any
	// arrival observed.
	MaxQueueDepth int
	// ActiveEnergyJ is the transfer-scaled energy spent on this link
	// (modulators + interfaces; standing laser energy is accounted
	// network-wide).
	ActiveEnergyJ float64
}

// NetResults summarizes one network simulation.
type NetResults struct {
	// Injected counts generated messages; Messages the delivered ones;
	// Dropped the difference lost to full queues.
	Injected int64
	Messages int64
	Dropped  int64
	// DeliveredBits is the delivered payload.
	DeliveredBits int64
	// SimTimeSec is the horizon: the end of the last transmission or
	// delivery, whichever is later. On lossless runs that is the last
	// delivery; with bounded queues a message can still be transmitting on
	// an early hop (before being dropped downstream) after the final
	// delivery, and the horizon covers it so utilizations stay ≤ 1.
	SimTimeSec float64
	// End-to-end latency statistics (injection → delivery) in seconds.
	MeanLatencySec float64
	P50LatencySec  float64
	P95LatencySec  float64
	P99LatencySec  float64
	MaxLatencySec  float64
	// MeanQueueWaitSec is the mean total arbitration wait per delivered
	// message, summed over its hops.
	MeanQueueWaitSec float64
	// MeanHops is the traffic-weighted route length.
	MeanHops float64
	// Energy split: lasers hold their standing (DAC-quantized) power for
	// the whole run; modulator and interface energy scale with each
	// link's transmission time — the same accounting as the aggregates.
	LaserEnergyJ     float64
	ModulatorEnergyJ float64
	InterfaceEnergyJ float64
	TotalEnergyJ     float64
	// EnergyPerBitJ is total energy over delivered payload bits.
	EnergyPerBitJ float64
	// ThroughputBitsPerSec is delivered payload over simulated time.
	ThroughputBitsPerSec float64
	// MeanUtilization and MaxUtilization summarize the per-link busy
	// fractions.
	MeanUtilization float64
	MaxUtilization  float64
	// SchemeUse counts links per configured scheme name (the simulator
	// configures each link once, from its decision).
	SchemeUse map[string]int
	// Decisions echoes the per-link operating points the run used.
	Decisions []noc.LinkDecision
	// PerLink breaks the run down by link.
	PerLink []NetLinkStats
}

// RecordNetworkTrace generates the arrival stream the configured workload
// would produce — per-source Poisson processes at the configured injection
// rate, destinations drawn from the traffic matrix — without simulating the
// network. RunNetwork is exactly this followed by RunNetworkTrace, so
// recorded traces replay to identical results.
func RecordNetworkTrace(ctx context.Context, cfg NetConfig) (Trace, error) {
	cfg, sources, next, err := cfg.generator()
	if err != nil {
		return nil, err
	}
	return record(ctx, cfg.Messages, sources, next)
}

// generator resolves the workload-generation defaults of c and returns the
// active sources and their next-arrival function.
func (c NetConfig) generator() (NetConfig, []int, func(src int, now float64) TraceEvent, error) {
	cfg, err := c.withDefaults()
	if err != nil {
		return cfg, nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tiles := cfg.Net.Tiles()
	srcRate := cfg.InjectionRateBitsPerSec / float64(cfg.MessageBits)

	// Per-source destination tables over the positive weights, diagonal
	// excluded.
	tables := make([]destTable, tiles)
	var sources []int // silent sources emit nothing
	for s := 0; s < tiles; s++ {
		var cum []float64
		var dst []int
		total := 0.0
		for d := 0; d < tiles; d++ {
			if w := cfg.Traffic.Weight(s, d, tiles); w > 0 {
				total += w
				cum = append(cum, total)
				dst = append(dst, d)
			}
		}
		if len(dst) > 0 {
			tables[s] = newDestTable(cum, dst)
			sources = append(sources, s)
		}
	}

	pick := func(s int) int {
		t := &tables[s]
		return t.dst[t.index(rng.Float64()*t.cum[len(t.cum)-1])]
	}

	if len(sources) == 0 {
		return cfg, nil, nil, fmt.Errorf("netsim: traffic matrix has no active source")
	}
	return cfg, sources, func(s int, now float64) TraceEvent {
		at := now + rng.ExpFloat64()/srcRate
		return TraceEvent{TimeSec: at, Src: s, Dst: pick(s), Bits: cfg.MessageBits}
	}, nil
}

// destTable is one source's destination distribution: the cumulative
// weights cum of its destinations dst, and a Chen–Asau guide table that
// starts the search for a draw at or before its answer: on a traffic
// matrix's rows, at most a few entries before it.
type destTable struct {
	cum   []float64
	dst   []int
	guide []int32 // guide[b]: how many cum values lie in buckets below b
	scale float64 // guide buckets per unit of cumulative weight
}

// newDestTable indexes cum, a non-empty, non-decreasing row of cumulative
// non-negative weights, with one guide bucket per entry.
func newDestTable(cum []float64, dst []int) destTable {
	t := destTable{cum: cum, dst: dst, guide: make([]int32, len(cum))}
	t.scale = float64(len(cum)) / cum[len(cum)-1]
	// bucket is non-decreasing and so is cum, so the cum values below
	// bucket b are a prefix.
	i := 0
	for b := range t.guide {
		for i < len(cum) && t.bucket(cum[i]) < b {
			i++
		}
		t.guide[b] = int32(i)
	}
	return t
}

// bucket maps a draw r ≥ 0 to its guide bucket. It is non-decreasing in r,
// which is all index relies on: a cum value in a lower bucket than r's is
// below r. A total of zero or one that overflows the scale makes a NaN or
// infinite product, which goes to the last bucket, as do draws at the
// total.
func (t *destTable) bucket(r float64) int {
	last := len(t.guide) - 1
	if x := r * t.scale; x < float64(last) {
		return int(x)
	}
	return last
}

// index returns the index sort.SearchFloat64s(t.cum, r) returns for a draw
// r ≥ 0 — the first cumulative weight at or above r, equal weights
// included — and the last index where the search returns len(t.cum), which
// no draw in [0, total] does.
func (t *destTable) index(r float64) int {
	i := int(t.guide[t.bucket(r)])
	for i < len(t.cum) && !(t.cum[i] >= r) {
		i++
	}
	if i == len(t.cum) {
		i--
	}
	return i
}

// RunNetwork generates the configured workload and simulates it. Its
// results are exactly those of RecordNetworkTrace followed by
// RunNetworkTrace; generation runs on its own goroutine, overlapping the
// event loop, and ends before RunNetwork returns.
func RunNetwork(ctx context.Context, cfg NetConfig) (NetResults, error) {
	cfg, sources, next, err := cfg.generator()
	if err != nil {
		return NetResults{}, err
	}
	return overlap(ctx, cfg.Messages, sources, next, func(ctx context.Context, tr Trace, ready <-chan int) (NetResults, error) {
		return simulateNetwork(ctx, cfg, tr, ready)
	})
}

// RunNetworkTrace replays a message trace through the network: every
// message crosses its route's links in order (XY on the mesh, single hop on
// bus/crossbar/ring). Each link is one MWSR server: transfers serialize in
// arrival order at the link's decided capacity (wavelengths × Fmod / CT);
// the fixed token-arbitration cost and the waveguide flight time are
// charged per hop as pipeline latency that does not occupy the medium, so
// the per-link occupancy process is exactly the M/D/1 abstraction the
// analytic aggregates assume — that is what makes the two comparable
// statistic for statistic. Every transfer on a link gets the link's static
// grant from its decision. The run is the package's sequential event loop,
// hence bit-identical across repetitions regardless of who solved the
// decisions.
func RunNetworkTrace(ctx context.Context, cfg NetConfig, tr Trace) (NetResults, error) {
	cfg, err := cfg.validateSim()
	if err != nil {
		return NetResults{}, err
	}
	if err := tr.Validate(cfg.Net.Tiles()); err != nil {
		return NetResults{}, err
	}
	return simulateNetwork(ctx, cfg, tr, nil)
}

// simulateNetwork runs the event loop of a validated configuration over tr,
// read as simulate reads it.
func simulateNetwork(ctx context.Context, cfg NetConfig, tr Trace, ready <-chan int) (NetResults, error) {
	// Each link's grant is static: its decision's scheme and DAC setting,
	// with sec the serialization seconds per payload bit, which the loop
	// scales by each transfer's size.
	nlinks, base := cfg.Net.NumLinks(), cfg.Net.BaseRef()
	servers := make([]server, nlinks)
	for i := range nlinks {
		l, d := cfg.Net.LinkRef(i), &cfg.Decisions[i]
		nw := float64(len(l.Lambdas))
		laserW := d.LaserPowerW * nw
		servers[i] = server{token: core.TokenOverheadSec, prop: l.PropagationDelaySec(), idleW: laserW, perBit: grant{
			sec:    1 / l.CapacityBitsPerSec(d.Eval.CT),
			laserW: laserW,
			modW:   base.ModulatorPowerW * nw,
			intfW:  base.InterfacePowerFor(d.Eval.Code).TotalW(),
			heldW:  laserW,
		}}
	}
	t, err := simulate(ctx, tr, ready, cfg.Net.Tiles(), cfg.Net.Router(), servers, cfg.MaxQueueDepth, nil)
	if err != nil {
		return NetResults{}, err
	}

	res := NetResults{
		Injected:      int64(len(tr)),
		Messages:      t.delivered,
		Dropped:       t.dropped,
		DeliveredBits: t.deliveredBits,
		SimTimeSec:    t.horizon,
		SchemeUse:     make(map[string]int, len(cfg.Decisions)),
		Decisions:     append([]noc.LinkDecision(nil), cfg.Decisions...),
		PerLink:       make([]NetLinkStats, nlinks),
	}
	for i := range cfg.Decisions {
		res.SchemeUse[cfg.Decisions[i].Eval.Code.Name()]++
	}
	for i, lt := range t.links {
		st := NetLinkStats{Link: i, Messages: lt.served, Drops: lt.drops, MaxQueueDepth: lt.maxDepth, ActiveEnergyJ: lt.sendJ}
		if res.SimTimeSec > 0 {
			st.Utilization = lt.busy / res.SimTimeSec
			st.MeanQueueDepth = lt.wait / res.SimTimeSec
		}
		if lt.served > 0 {
			st.MeanQueueWaitSec = lt.wait / float64(lt.served)
		}
		res.PerLink[i] = st
		res.MaxUtilization = max(res.MaxUtilization, st.Utilization)
		res.MeanUtilization += st.Utilization / float64(nlinks)
	}
	// Lasers hold their standing power for the whole horizon: sending
	// time plus idle time.
	res.LaserEnergyJ = t.laserJ + t.idleJ
	res.ModulatorEnergyJ, res.InterfaceEnergyJ = t.modJ, t.intfJ
	res.TotalEnergyJ = res.LaserEnergyJ + res.ModulatorEnergyJ + res.InterfaceEnergyJ
	res.MeanLatencySec, res.P50LatencySec, res.P95LatencySec, res.P99LatencySec, res.MaxLatencySec = t.mean, t.p50, t.p95, t.p99, t.max
	res.MeanQueueWaitSec = t.meanWait
	if t.delivered > 0 {
		res.MeanHops = float64(t.hops) / float64(t.delivered)
	}
	if res.DeliveredBits > 0 {
		res.EnergyPerBitJ = res.TotalEnergyJ / float64(res.DeliveredBits)
	}
	if res.SimTimeSec > 0 {
		res.ThroughputBitsPerSec = float64(res.DeliveredBits) / res.SimTimeSec
	}
	return res, nil
}
