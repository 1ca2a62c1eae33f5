package photonoc

import (
	"context"

	"photonoc/internal/tune"
)

// Design-space autotuner: a deterministic multi-objective particle swarm
// over the joint NoC design space (topology family, tile count, mesh
// shape, wavelength grid, scheme-roster subset, DAC resolution), evaluated
// generation-by-generation through Engine.NetworkBatchEach and archived as a
// Pareto front over (energy/bit, p99 latency, saturation throughput).
type (
	// TuneOptions parameterizes a campaign; the zero value of every field
	// has a usable default except TargetBER, which is required.
	TuneOptions = tune.Options
	// TunePoint is one archived design point: the decoded spec, the
	// encoded particle position that produced it, and its objectives.
	TunePoint = tune.Point
	// TuneResult is a finished campaign: the final front plus evaluation
	// accounting.
	TuneResult = tune.Result
	// TuneSpec is the decoded, human-readable identity of one design
	// point — enough to rebuild its NoCCandidate by hand and reproduce
	// its metrics with an independent Engine.Network evaluation.
	TuneSpec = tune.CandidateSpec
)

// Tune runs one autotuner campaign against this Engine and returns the
// final Pareto front. Campaigns are deterministic from TuneOptions.Seed:
// the same options and scheme roster produce the identical TuneResult
// regardless of the Engine's worker count. Infeasible candidates (designs
// the wavelength grid cannot carry, rosters that cannot close a link at
// the target BER) are counted and skipped, never fatal; cancellation of
// ctx and OnGeneration callback errors abort the campaign.
func (e *Engine) Tune(ctx context.Context, opts TuneOptions) (*TuneResult, error) {
	return tune.Run(ctx, e.Engine, opts)
}
