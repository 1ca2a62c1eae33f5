package noc

import (
	"fmt"
	"math"
	"slices"

	"photonoc/internal/core"
	"photonoc/internal/manager"
)

// EvalSession is the reusable scratch space of the candidate-evaluation
// fast path: link-count-sized share/capacity/load tables, the per-link
// decision slice, the hop-latency and latency pair buffers and the
// scheme-use map, all recycled across evaluations so a steady-state
// Decide + Aggregate over a fixed topology shape allocates nothing. The
// design-space autotuner workload — millions of neighboring candidates over
// a handful of topology shapes — runs entirely through sessions
// (engine.NetworkSession wraps one per worker).
//
// A session is NOT safe for concurrent use, and the Result returned by
// Aggregate aliases session-owned storage (Decisions, Loads, SchemeUse):
// it is valid only until the session's next call. Callers that need the
// result to outlive the session copy it with Result.Clone; a one-shot
// evaluation runs on a fresh session.
type EvalSession struct {
	decisions []LinkDecision
	shares    []float64
	capacity  []float64
	loads     []LinkLoad
	hopLat    []float64
	pairs     []pairLat
	schemeUse map[string]int
	// lasers memoizes the DAC-programmed laser powers of Decide.
	lasers manager.LaserMemo
	result Result
}

// pairLat is one traffic-weighted (src, dst) path latency sample of the
// latency fold.
type pairLat struct {
	lat float64
	w   float64
}

// NewEvalSession returns an empty session; buffers grow to the largest
// topology shape evaluated through it and are then reused.
func NewEvalSession() *EvalSession {
	return &EvalSession{schemeUse: make(map[string]int, 8)}
}

// grow resizes buf to n elements, reusing its backing array when it is
// already large enough. Contents are unspecified; callers overwrite.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// withDefaults validates the options and resolves their defaults against a
// network. Nil traffic stays nil: Matrix.Weight reads it as uniform.
func withDefaults(o EvalOptions, net *Network) (EvalOptions, error) {
	if math.IsNaN(o.TargetBER) || o.TargetBER <= 0 || o.TargetBER >= 0.5 {
		return o, fmt.Errorf("noc: target BER %g outside (0, 0.5)", o.TargetBER)
	}
	if o.Traffic != nil {
		if err := o.Traffic.Validate(net.Tiles()); err != nil {
			return o, err
		}
	}
	if o.MessageBits == 0 {
		o.MessageBits = 4096 * 8
	}
	if o.MessageBits < 0 {
		return o, fmt.Errorf("noc: message size %d must be positive", o.MessageBits)
	}
	if math.IsNaN(o.InjectionRateBitsPerSec) || o.InjectionRateBitsPerSec < 0 {
		return o, fmt.Errorf("noc: injection rate %g must be a non-negative number", o.InjectionRateBitsPerSec)
	}
	if o.DAC != nil {
		if err := o.DAC.Validate(); err != nil {
			return o, err
		}
	}
	return o, nil
}

// Decide picks each link's scheme from evals[linkID], its roster solved in
// order, with manager.Choose, and programs an optional DAC with
// manager.Program through the session's laser memo. The returned slice is the session's decision buffer,
// valid until the session's next Decide call.
func (s *EvalSession) Decide(net *Network, evals [][]core.Evaluation, opts EvalOptions) ([]LinkDecision, error) {
	if len(evals) != net.NumLinks() {
		return nil, fmt.Errorf("noc: %d evaluation rows for %d links", len(evals), net.NumLinks())
	}
	if err := opts.Objective.Validate(); err != nil {
		return nil, err
	}
	s.decisions = grow(s.decisions, net.NumLinks())
	for id := range evals {
		decideLink(&s.decisions[id], &net.links[id], evals[id], &opts, &s.lasers)
	}
	return s.decisions, nil
}

// Aggregate folds solved per-link decisions under the traffic matrix (nil
// is uniform) into the network-level figures: per-link loads, saturation
// injection rate (min over loaded links of capacity/share, exact because
// utilization is linear in the rate), energy totals and traffic-weighted
// latency percentiles. The returned Result aliases the session (Decisions,
// Loads, SchemeUse) and is valid until the next session call; use
// Result.Clone to detach it.
func (s *EvalSession) Aggregate(net *Network, decisions []LinkDecision, opts EvalOptions) (*Result, error) {
	opts, err := withDefaults(opts, net)
	if err != nil {
		return nil, err
	}
	if len(decisions) != net.NumLinks() {
		return nil, fmt.Errorf("noc: %d decisions for %d links", len(decisions), net.NumLinks())
	}
	clear(s.schemeUse)
	res := Result{
		Kind:      net.Kind(),
		Tiles:     net.Tiles(),
		Links:     net.NumLinks(),
		TargetBER: opts.TargetBER,
		Decisions: decisions,
		SchemeUse: s.schemeUse,
		Feasible:  true,
	}
	for i := range decisions {
		d := &decisions[i]
		if !d.Feasible {
			res.Feasible = false
			res.InfeasibleReason = fmt.Sprintf("link %d: %s", d.Link, d.InfeasibleReason)
			s.result = res
			return &s.result, nil
		}
		res.SchemeUse[d.Eval.Code.Name()]++
	}

	// Routed demand share per link, in per-tile-rate units. Weights are
	// non-negative with a zero diagonal, so a source is active exactly
	// when it routes a non-zero weight.
	s.shares = grow(s.shares, net.NumLinks())
	shares := s.shares
	clear(shares)
	activeTiles := 0
	router := net.Router()
	tiles := net.Tiles()
	for src := 0; src < tiles; src++ {
		active := false
		for d := 0; d < tiles; d++ {
			w := opts.Traffic.Weight(src, d, tiles)
			if w == 0 {
				continue
			}
			active = true
			first, second := router.Route(src, d)
			shares[first] += w
			if second >= 0 {
				shares[second] += w
			}
		}
		if active {
			activeTiles++
		}
	}

	s.capacity = grow(s.capacity, net.NumLinks())
	capacity := s.capacity
	minSat := math.Inf(1)
	for i := range net.links {
		l := &net.links[i]
		d := &decisions[i]
		capacity[i] = l.CapacityBitsPerSec(d.Eval.CT)
		if shares[i] > 0 {
			if sat := capacity[i] / shares[i]; sat < minSat {
				minSat = sat
			}
		}
	}

	// An all-silent matrix (or one whose active rows route nothing) loads
	// no link, so minSat never drops below +Inf. Validate already rejects
	// matrices with no active source; this guard keeps the contract even
	// for matrices constructed outside Validate, which would otherwise
	// report SaturationInjectionBitsPerSec = +Inf and an +Inf delivered
	// rate.
	if math.IsInf(minSat, 1) {
		return nil, fmt.Errorf("%w: no link carries load", ErrZeroTraffic)
	}
	// Utilization is linear in the rate, so the most loaded link reaches
	// unit utilization exactly at minSat.
	res.SaturationInjectionBitsPerSec = minSat

	rate := opts.InjectionRateBitsPerSec
	if rate == 0 {
		rate = minSat / 2
	}
	res.InjectionRateBitsPerSec = rate
	res.DeliveredBitsPerSec = float64(activeTiles) * rate

	// Per-link loads and the M/D/1 queue waits of the latency model.
	s.loads = grow(s.loads, net.NumLinks())
	res.Loads = s.loads
	var activeEnergyNum float64
	for i := range net.links {
		offered := shares[i] * rate
		util := offered / capacity[i]
		wait := math.Inf(1)
		if util < 1 {
			service := float64(opts.MessageBits) / capacity[i]
			wait = util * service / (2 * (1 - util))
		} else {
			res.Saturated = true
			util = 1
		}
		res.Loads[i] = LinkLoad{
			Link:               i,
			CapacityBitsPerSec: capacity[i],
			OfferedBitsPerSec:  offered,
			Utilization:        util,
			QueueWaitSec:       wait,
		}

		// Energy accounting, netsim's model: lasers hold their standing
		// power continuously, modulators and interfaces burn only while
		// the link serves transfers.
		l := &net.links[i]
		d := &decisions[i]
		nw := float64(len(l.Lambdas))
		res.LaserPowerW += d.LaserPowerW * nw
		res.ModulatorPowerW += net.cfg.Base.ModulatorPowerW * nw * util
		res.InterfacePowerW += net.cfg.Base.InterfacePowerFor(d.Eval.Code).TotalW() * util
		activeEnergyNum += util * capacity[i] * d.EnergyPerBitJ
	}
	res.NetworkPowerW = res.LaserPowerW + res.ModulatorPowerW + res.InterfacePowerW
	if res.DeliveredBitsPerSec > 0 {
		res.EnergyPerBitJ = res.NetworkPowerW / res.DeliveredBitsPerSec
	}
	var busyBits float64
	for i := range res.Loads {
		busyBits += res.Loads[i].Utilization * capacity[i]
	}
	if busyBits > 0 {
		res.ActiveEnergyPerBitJ = activeEnergyNum / busyBits
	}

	s.aggregateLatency(&res, net, opts)
	s.result = res
	return &s.result, nil
}

// aggregateLatency folds per-pair path latencies, weighted by the traffic
// matrix, into mean and percentile figures on the session's pair buffer.
// Each link's hop latency (token, queue wait, serialization, flight) is
// computed once per call into the session's hop buffer.
func (s *EvalSession) aggregateLatency(res *Result, net *Network, opts EvalOptions) {
	s.hopLat = grow(s.hopLat, net.NumLinks())
	hopLat := s.hopLat
	for id := range hopLat {
		load := &res.Loads[id]
		serial := float64(opts.MessageBits) / load.CapacityBitsPerSec
		prop := net.links[id].PropagationDelaySec()
		hopLat[id] = core.TokenOverheadSec + load.QueueWaitSec + serial + prop
	}
	router := net.Router()
	tiles := net.Tiles()
	pairs := s.pairs[:0]
	var totalW, meanNum float64
	for src := 0; src < tiles; src++ {
		for d := 0; d < tiles; d++ {
			w := opts.Traffic.Weight(src, d, tiles)
			if w == 0 {
				continue
			}
			first, second := router.Route(src, d)
			lat := hopLat[first]
			if second >= 0 {
				lat += hopLat[second]
			}
			pairs = append(pairs, pairLat{lat: lat, w: w})
			totalW += w
			meanNum += w * lat
		}
	}
	s.pairs = pairs
	if totalW == 0 {
		return
	}
	slices.SortFunc(pairs, func(a, b pairLat) int {
		switch {
		case a.lat < b.lat:
			return -1
		case a.lat > b.lat:
			return 1
		default:
			return 0
		}
	})
	res.MeanLatencySec = meanNum / totalW
	res.MaxLatencySec = pairs[len(pairs)-1].lat
	quantile := func(q float64) float64 {
		cum := 0.0
		for _, p := range pairs {
			cum += p.w
			if cum >= q*totalW {
				return p.lat
			}
		}
		return pairs[len(pairs)-1].lat
	}
	res.P50LatencySec = quantile(0.50)
	res.P95LatencySec = quantile(0.95)
	res.P99LatencySec = quantile(0.99)
}

// Clone deep-copies a Result, detaching it from any session-owned storage
// (Decisions, Loads, SchemeUse). Engine.NetworkBatch clones every result
// it hands out, so batch outputs are independent of the pooled sessions
// that produced them; Engine.NetworkBatchEach does not, and its visitors
// clone only what they keep.
func (r *Result) Clone() Result {
	out := *r
	if r.Decisions != nil {
		out.Decisions = append([]LinkDecision(nil), r.Decisions...)
	}
	if r.Loads != nil {
		out.Loads = append([]LinkLoad(nil), r.Loads...)
	}
	if r.SchemeUse != nil {
		out.SchemeUse = make(map[string]int, len(r.SchemeUse))
		for k, v := range r.SchemeUse {
			out.SchemeUse[k] = v
		}
	}
	return out
}
