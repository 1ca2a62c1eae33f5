package photonoc

import (
	"photonoc/internal/engine"
	"photonoc/internal/netsim"
	"photonoc/internal/noc"
)

// Network-layer types: full topologies of ChannelSpec-backed links with
// wavelength allocation, routing and a parallel network evaluator. Build a
// topology with Engine.BuildNetwork (or BuildNoC) and evaluate it with the
// promoted Engine.Network / Engine.NetworkSweep / Engine.NetworkSweepStream
// entry points.
type (
	// NoCConfig describes a network topology to build: the family, the
	// tile count and the prototype link configuration (a zero Base adopts
	// the Engine's configuration in Engine.BuildNetwork).
	NoCConfig = noc.Config
	// NoCKind is the topology family (bus, crossbar, ring, mesh).
	NoCKind = noc.Kind
	// NoC is a built network: links with derived per-link configurations
	// (NoCLink.Config), wavelength allocation over shared waveguides, and
	// a routing rule.
	NoC = noc.Network
	// NoCLink is one MWSR channel of a network.
	NoCLink = noc.Link
	// NoCEvalOptions parameterizes a network evaluation (target BER,
	// objective, traffic matrix, injection rate, optional laser DAC).
	NoCEvalOptions = noc.EvalOptions
	// NoCResult is one solved network operating point: per-link decisions
	// and loads, saturation throughput, energy and latency aggregates.
	NoCResult = noc.Result
	// NoCLinkDecision is the chosen operating point of one link.
	NoCLinkDecision = noc.LinkDecision
	// NoCLinkLoad is the traffic view of one link.
	NoCLinkLoad = noc.LinkLoad
	// TrafficMatrix is a row-normalized (src, dst) traffic matrix; netsim
	// patterns and recorded traces both extract one (Pattern.Matrix,
	// Trace.Matrix), and UniformTraffic builds the default.
	TrafficMatrix = noc.Matrix
	// NoCCandidate is one point of a design-space population: topology,
	// optional roster restriction and evaluation options. Evaluate whole
	// populations with the promoted Engine.NetworkBatch /
	// Engine.NetworkBatchStream, or drive a single
	// NoCSession via the promoted Engine.NewNetworkSession.
	NoCCandidate = engine.NetworkCandidate
	// NoCBatchOptions parameterizes Engine.NetworkBatch /
	// Engine.NetworkBatchStream; the zero value is the strict mode, and
	// ContinueOnError switches to partial-failure batches.
	NoCBatchOptions = engine.BatchOptions
	// NoCCandidateError is one candidate's failure in a partial-failure
	// batch: population index plus the typed cause.
	NoCCandidateError = engine.CandidateError
	// NoCBatchErrors aggregates the per-candidate failures of a
	// partial-failure batch; it multi-unwraps for errors.Is/As.
	NoCBatchErrors = engine.BatchErrors
	// NoCSession is the zero-allocation network evaluator of the
	// autotuner fast path: it solves each candidate's (link, scheme, BER)
	// cells through the engine's memo cache, so only cells no earlier
	// candidate solved run the physics. Not safe for concurrent use; results alias session storage
	// until the next Evaluate (Clone them to keep them).
	NoCSession = engine.NetworkSession
	// SimPattern is a synthetic netsim workload (see ParsePattern).
	SimPattern = netsim.Pattern
	// NoCSimOptions parameterizes a network-scale discrete-event
	// simulation (Engine.SimulateNetwork): target BER, objective, traffic
	// matrix, injection rate, message count, seed and queue bound.
	NoCSimOptions = engine.NetworkSimOptions
	// NoCSimResults is the outcome of a network simulation: end-to-end
	// latency percentiles, per-link utilization/queue/drops, and the
	// standing-vs-dynamic energy split. The simulator's per-link
	// scheme/DAC decisions are bit-identical to the analytic NoCResult's.
	NoCSimResults = netsim.NetResults
	// NoCLinkSimStats is the per-link view of a network simulation.
	NoCLinkSimStats = netsim.NetLinkStats
	// NoCSimConfig is the low-level simulator configuration (the Engine
	// assembles one in SimulateNetwork; direct use is for replaying
	// custom decision sets or traces through netsim.RunNetworkTrace).
	NoCSimConfig = netsim.NetConfig
)

// Topology families for NoCConfig.Kind.
const (
	NoCBus      = noc.Bus
	NoCCrossbar = noc.Crossbar
	NoCRing     = noc.Ring
	NoCMesh     = noc.Mesh
)

// ParseNoCKind maps "bus|crossbar|ring|mesh" to its NoCKind.
func ParseNoCKind(s string) (NoCKind, error) { return noc.ParseKind(s) }

// BuildNoC compiles a topology configuration into an immutable network.
// Unlike Engine.BuildNetwork it requires cfg.Base to be set.
func BuildNoC(cfg NoCConfig) (*NoC, error) { return noc.Build(cfg) }

// UniformTraffic spreads every tile's traffic evenly over the other tiles.
func UniformTraffic(tiles int) TrafficMatrix { return noc.UniformMatrix(tiles) }

// NoCEvalSession is the reusable scratch space of the noc-layer fast path:
// once warmed on a topology shape, Decide + Aggregate through a session
// allocate nothing. Engine sessions (NoCSession) embed one; direct use
// pairs with BuildNoC for callers that solve links themselves.
type NoCEvalSession = noc.EvalSession

// NewNoCEvalSession returns an empty evaluation session; buffers grow to
// the largest topology evaluated through it and are then reused.
func NewNoCEvalSession() *NoCEvalSession { return noc.NewEvalSession() }

// ParsePattern maps "uniform|hotspot|permutation|streaming" to its
// SimPattern; Pattern.Matrix then extracts the traffic matrix the network
// evaluator consumes.
func ParsePattern(s string) (SimPattern, error) { return netsim.ParsePattern(s) }
