package netsim

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
)

// TraceEvent is one recorded message arrival — the unit of the portable
// trace format used to replay workloads (the "benchmark applications" of
// the paper's future work, captured once and re-run against different link
// policies).
type TraceEvent struct {
	TimeSec     float64 `json:"t"`
	Src         int     `json:"src"`
	Dst         int     `json:"dst"`
	Bits        int     `json:"bits"`
	DeadlineSec float64 `json:"deadline,omitempty"`
}

// Trace is a time-ordered sequence of message arrivals.
type Trace []TraceEvent

// Validate checks ordering and topology bounds for an n-ONI interconnect.
func (tr Trace) Validate(n int) error {
	return tr.validateRange(n, 0, len(tr))
}

// validateRange is Validate over the events tr[lo:hi], each checked for
// order against its predecessor in tr.
func (tr Trace) validateRange(n, lo, hi int) error {
	for i := lo; i < hi; i++ {
		ev := tr[i]
		if ev.Src < 0 || ev.Src >= n || ev.Dst < 0 || ev.Dst >= n {
			return fmt.Errorf("netsim: trace event %d endpoints (%d→%d) outside [0,%d)", i, ev.Src, ev.Dst, n)
		}
		if ev.Src == ev.Dst {
			return fmt.Errorf("netsim: trace event %d sends to itself", i)
		}
		if ev.Bits <= 0 {
			return fmt.Errorf("netsim: trace event %d has %d bits", i, ev.Bits)
		}
		if math.IsNaN(ev.TimeSec) || math.IsInf(ev.TimeSec, 0) || ev.TimeSec < 0 {
			// A NaN would slip through the ordering comparison below (every
			// NaN comparison is false), and negative times would collide
			// with the simulators' t = 0 server anchor (nextFree starts at
			// zero), charging phantom queue wait — reject both instead of
			// silently poisoning the statistics.
			return fmt.Errorf("netsim: trace event %d time %g must be finite and non-negative", i, ev.TimeSec)
		}
		if i > 0 && ev.TimeSec < tr[i-1].TimeSec {
			return fmt.Errorf("netsim: trace not time-ordered at event %d", i)
		}
		if ev.DeadlineSec != 0 && !(ev.DeadlineSec >= ev.TimeSec) {
			// !(≥) instead of (<) so a NaN deadline is rejected too.
			return fmt.Errorf("netsim: trace event %d deadline precedes arrival (or is NaN)", i)
		}
	}
	return nil
}

// WriteJSON streams the trace as JSON.
func (tr Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

// ReadTraceJSON parses a trace written by WriteJSON.
func ReadTraceJSON(r io.Reader) (Trace, error) {
	var tr Trace
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		return nil, fmt.Errorf("netsim: decoding trace: %w", err)
	}
	return tr, nil
}

// RecordTraceCtx generates the arrival stream the configured workload
// would produce, without simulating the link — a reusable, inspectable
// workload artifact. Generation of very large workloads (the trace is
// materialized in memory) aborts promptly on cancellation.
func RecordTraceCtx(ctx context.Context, cfg Config) (Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo := cfg.Link.Channel.Topo
	capacity := float64(topo.Wavelengths) * cfg.Link.FmodHz
	gen := trafficGenerator{
		cfg:          cfg,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		srcRate:      cfg.Load * capacity / float64(cfg.MessageBits),
		baseTransfer: float64(cfg.MessageBits) / capacity,
		n:            topo.ONIs,
	}
	sources := make([]int, topo.ONIs)
	for s := range sources {
		sources[s] = s
	}
	return record(ctx, cfg.Messages, sources, gen.next)
}
