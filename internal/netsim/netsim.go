// Package netsim is a discrete-event simulator of application traffic over
// the paper's MWSR optical interconnect: every ONI sources messages toward
// the other ONIs' channels, the optical link manager configures the ECC
// scheme and laser power per transfer, and the simulator accounts latency,
// deadline behaviour and energy — the "benchmark applications" evaluation
// the paper defers to future work (Section VI), driven here by synthetic
// workloads. It also implements the idle-laser-off extension of [9].
//
// One event loop runs every simulation: messages cross their routes link
// by link, each link an MWSR server with its own arbitration hold and
// pipeline latency, and a per-transfer decision sets the transfer time and
// powers. One generator loop records every synthetic workload as a Trace,
// so each run replays from its trace to identical results: a tournament
// tree merges the sources' arrival streams in (time, source) order, and a
// network source draws each destination from a guide table that returns
// the index a binary search over its cumulative weights would.
//
// A generated network run (RunNetwork) overlaps the two loops: the
// generator fills a preallocated trace on its own goroutine and publishes
// the ready count every 1,024 arrivals, and the event loop validates and
// reads only below it. The event loop stays sequential, so the determinism
// contract is unchanged: a fixed seed gives bit-identical results, exactly
// those of recording the trace and replaying it. The run cancels and waits
// for its generator before returning. The single link's RunCtx records,
// then replays. Both loops order events by (time, sequence): forwarded
// hops at equal times run first-scheduled-first-served, generated arrivals
// at equal times pop in source order, and a trace arrival runs ahead of a
// forwarded hop at the same instant.
//
// The single calibrated link (RunCtx/RunTraceCtx) is the loop's degenerate
// network: reader channel d is link d, the token and manager round trip
// holds the channel before each transfer, and the manager decides every
// transfer from the roster the run solved once. Whole noc.Network
// topologies (RunNetwork/RunNetworkTrace) add Poisson injection from a
// traffic matrix, XY multi-hop forwarding, bounded or unbounded queues, and
// static per-link decisions from noc.EvalSession.Decide (the engine layer
// solves them through its shared memo cache), which makes the results comparable
// decision for decision with the analytic aggregates they cross-validate.
package netsim

import (
	"fmt"

	"photonoc/internal/apierr"
	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/manager"
)

// Pattern selects the synthetic traffic workload.
type Pattern int

// Traffic patterns.
const (
	// Uniform sends each message to a uniformly random other ONI.
	Uniform Pattern = iota
	// Hotspot concentrates a configurable share of the traffic
	// (Config.HotspotFraction, default 30%) on one destination.
	Hotspot
	// Permutation fixes dst = (src + N/2) mod N (a transpose-like map).
	Permutation
	// Streaming emits periodic, deadline-tagged flows (multimedia-like)
	// from half of the sources, Poisson background from the rest.
	Streaming
)

// String implements fmt.Stringer.
func (p Pattern) String() string {
	switch p {
	case Uniform:
		return "uniform"
	case Hotspot:
		return "hotspot"
	case Permutation:
		return "permutation"
	case Streaming:
		return "streaming"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// ParsePattern maps the CLI spelling of a workload to its Pattern — the
// inverse of String, so command-line tools stop switching on magic strings.
func ParsePattern(s string) (Pattern, error) {
	switch s {
	case "uniform":
		return Uniform, nil
	case "hotspot":
		return Hotspot, nil
	case "permutation":
		return Permutation, nil
	case "streaming":
		return Streaming, nil
	default:
		return 0, fmt.Errorf("netsim: unknown pattern %q (want uniform|hotspot|permutation|streaming)", s)
	}
}

// Config drives one simulation run.
type Config struct {
	// Link is the channel/interface configuration (paper defaults via
	// core.DefaultConfig).
	Link core.LinkConfig
	// Schemes is the manager's roster (paper: the three schemes).
	Schemes []ecc.Code
	// DAC is the laser controller resolution.
	DAC manager.DAC
	// TargetBER applies to every transfer.
	TargetBER float64
	// Pattern picks the workload; HotspotNode the hot destination.
	Pattern     Pattern
	HotspotNode int
	// HotspotFraction is the share of each non-hotspot source's messages
	// aimed straight at HotspotNode (the remainder is uniform and may hit
	// the hotspot again). Hotspot runs require it in (0, 1); DefaultConfig
	// sets the historical 0.30.
	HotspotFraction float64
	// MessageBits is the payload per message.
	MessageBits int
	// Load is the offered payload utilization per channel (0, 1):
	// the fraction of NW·Fmod each reader would receive uncoded.
	Load float64
	// DeadlineSlack tags each message with
	// deadline = arrival + slack · (uncoded transfer time); 0 disables
	// deadlines.
	DeadlineSlack float64
	// Objective is the manager goal for non-deadline traffic.
	Objective manager.Objective
	// AdaptToDeadline lets the manager cap CT from the remaining slack
	// (the paper's real-time scenario).
	AdaptToDeadline bool
	// IdleLaserOff turns lasers off on idle channels (extension [9]).
	IdleLaserOff bool
	// Messages is the number of messages to simulate (across all sources),
	// at most MaxMessages.
	Messages int
	// Seed makes runs reproducible.
	Seed int64
}

// MaxMessages bounds the message count of a generated workload (Config and
// NetConfig). A run allocates its whole trace and two per-message buffers
// up front, 56 B per message, so the bound caps that at 56 MiB.
const MaxMessages = 1 << 20

// DefaultConfig returns a ready-to-run paper-scale simulation: 12 ONIs,
// 4 KiB messages, uniform traffic at 40% load, BER 1e-11.
func DefaultConfig() Config {
	return Config{
		Link:            core.DefaultConfig(),
		Schemes:         ecc.PaperSchemes(),
		DAC:             manager.PaperDAC(),
		TargetBER:       1e-11,
		Pattern:         Uniform,
		HotspotFraction: 0.30,
		MessageBits:     4096 * 8,
		Load:            0.4,
		DeadlineSlack:   0,
		Objective:       manager.MinEnergy,
		Messages:        20000,
		Seed:            1,
	}
}

// Validate checks the configuration: the link fields a replay reads and
// the traffic fields workload generation reads.
func (c *Config) Validate() error {
	if err := c.validateLink(); err != nil {
		return err
	}
	if c.MessageBits <= 0 {
		return fmt.Errorf("netsim: message size %d must be positive", c.MessageBits)
	}
	if !(c.Load > 0 && c.Load < 1) {
		return fmt.Errorf("netsim: load %g outside (0, 1)", c.Load)
	}
	if c.Messages <= 0 {
		return fmt.Errorf("netsim: message count %d must be positive", c.Messages)
	}
	if c.Messages > MaxMessages {
		return fmt.Errorf("netsim: %d messages exceed the bound of %d", c.Messages, MaxMessages)
	}
	if !(c.DeadlineSlack >= 0) {
		return fmt.Errorf("netsim: deadline slack %g is negative or NaN", c.DeadlineSlack)
	}
	n := c.Link.Channel.Topo.ONIs
	if c.Pattern == Hotspot {
		if c.HotspotNode < 0 || c.HotspotNode >= n {
			return fmt.Errorf("netsim: hotspot node %d outside [0,%d)", c.HotspotNode, n)
		}
		if !(c.HotspotFraction > 0 && c.HotspotFraction < 1) {
			return fmt.Errorf("netsim: hotspot fraction %g outside (0, 1)", c.HotspotFraction)
		}
	}
	return nil
}

// validateLink checks the fields a trace replay reads: the link, the
// scheme roster, the target BER and the objective.
func (c *Config) validateLink() error {
	if err := c.Link.Validate(); err != nil {
		return err
	}
	if len(c.Schemes) == 0 {
		return fmt.Errorf("netsim: empty scheme roster")
	}
	if !(c.TargetBER > 0 && c.TargetBER < 0.5) {
		return fmt.Errorf("netsim: target BER %g outside (0, 0.5)", c.TargetBER)
	}
	if err := c.Objective.Validate(); err != nil {
		return fmt.Errorf("%w: %v", apierr.ErrInvalidInput, err)
	}
	return nil
}

// Results summarizes one run.
type Results struct {
	Messages      int64
	DeliveredBits int64
	SimTimeSec    float64
	// Latency statistics in seconds (arrival → delivery).
	MeanLatencySec float64
	P50LatencySec  float64
	P95LatencySec  float64
	P99LatencySec  float64
	MaxLatencySec  float64
	// MeanQueueWaitSec is the arbitration/queueing component alone.
	MeanQueueWaitSec float64
	// Deadline accounting (when DeadlineSlack > 0).
	DeadlineMisses int64
	// Energy breakdown in joules.
	LaserEnergyJ     float64
	ModulatorEnergyJ float64
	InterfaceEnergyJ float64
	IdleEnergyJ      float64
	TotalEnergyJ     float64
	// EnergyPerBitJ is total energy over delivered payload bits.
	EnergyPerBitJ float64
	// ThroughputBitsPerSec is delivered payload over simulated time.
	ThroughputBitsPerSec float64
	// SchemeUse counts transfers per scheme name.
	SchemeUse map[string]int64
	// ChannelUtilization is mean busy fraction across channels.
	ChannelUtilization float64
	// PerChannel breaks the run down by destination (reader) channel.
	PerChannel []ChannelStats
}

// ChannelStats is the per-destination view of a run.
type ChannelStats struct {
	// Channel is the reader/destination ONI index.
	Channel int
	// Messages received on this channel.
	Messages int64
	// BusyFraction of the simulated time the channel served transfers.
	BusyFraction float64
	// ActiveEnergyJ spent on transfers into this channel (laser+MR+intf).
	ActiveEnergyJ float64
}
