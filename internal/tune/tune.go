// Package tune is the design-space autotuner: a multi-objective particle
// swarm over the joint NoC design space — topology family, tile count,
// mesh shape, wavelength-grid size, scheme-roster subset and DAC
// resolution — searching for Pareto-optimal (energy/bit, p99 latency,
// saturation throughput) operating points.
//
// Each particle is a continuous position in [0, 1]^6 decoded into a
// discrete design (see encode.go). Every generation evaluates the designs
// not seen earlier in the campaign as one Engine.NetworkBatchEach
// population, in particle order, on the engine's per-worker zero-alloc
// sessions, whose cells go through the engine's memo cache; a particle on
// a design already seen copies its score, since an evaluation is a pure
// function of its candidate. Survivors feed a bounded Pareto archive with
// crowding-distance pruning; the archive's spread leaders pull the swarm's
// social term.
//
// Campaigns are deterministic from a root seed: every particle owns a
// derived RNG stream (a math/rand source seeded by mc.DeriveSeed, the
// splitmix64 derivation the Monte-Carlo layer also seeds its shards' PCGs
// with), all draws happen on the driver
// goroutine in particle order, and batch evaluation is bit-identical
// regardless of the engine's worker count — so fronts are reproducible
// across Workers=1/2/4 runs and every archived point can be re-derived by
// an independent Engine.Network evaluation of its spec.
package tune

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"photonoc/internal/apierr"
	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/engine"
	"photonoc/internal/manager"
	"photonoc/internal/mc"
	"photonoc/internal/netsim"
	"photonoc/internal/noc"
)

// Canonical PSO constriction coefficients (Clerc & Kennedy) of the velocity
// update v' = w·v + c1·r1·(pbest−x) + c2·r2·(leader−x).
const (
	inertia   = 0.7298  // w
	cognitive = 1.49618 // c1
	social    = 1.49618 // c2
	// maxVelocity clamps each velocity component to half the unit cube, so
	// one step never overshoots more than the full choice range.
	maxVelocity = 0.5
)

// Campaign-shape defaults applied when the corresponding Options field is
// zero. Exported because remote clients derive the expected stream length
// (Generations + summary) from the same defaults the server applies.
const (
	DefaultParticles   = 16
	DefaultGenerations = 20
	DefaultArchiveCap  = 64
)

// Options parameterizes a campaign. The zero value of every field has a
// usable default except TargetBER, which is required.
type Options struct {
	// Seed is the campaign root seed; per-particle streams are derived
	// from it (default 1).
	Seed int64
	// Particles is the swarm size (default 16).
	Particles int
	// Generations is the campaign length (default 20).
	Generations int
	// ArchiveCap bounds the Pareto archive; crowding-distance pruning
	// keeps the spread when the front outgrows it (default 64).
	ArchiveCap int

	// TargetBER is the post-decoding BER every candidate must meet.
	// Required.
	TargetBER float64
	// Objective picks each link's scheme among feasible evaluations. The
	// zero value is min-power, the paper's headline rule; the HTTP and CLI
	// surfaces default to min-energy and must set it explicitly.
	Objective manager.Objective
	// Pattern fixes the campaign traffic pattern (default uniform).
	// HotspotNode and HotspotFraction apply to the hotspot pattern only
	// and follow netsim's validation.
	Pattern         netsim.Pattern
	HotspotNode     int
	HotspotFraction float64
	// MessageBits sizes the latency model's serialization and queueing
	// terms (0 = the evaluator's 4 KiB default).
	MessageBits int

	// The design space: choice lists per knob. Defaults: Kinds bus, ring
	// and mesh; Tiles {8, 12, 16}; Wavelengths {0} (the engine's grid;
	// a positive choice, at most noc.MaxWavelengths, resizes the grid and
	// the topology's wavelength count together); Rosters the engine roster plus one single-scheme roster per code;
	// DACBits {0, 4, 6, 8} (0 = exact analytic laser settings).
	Kinds       []noc.Kind
	Tiles       []int
	Wavelengths []int
	Rosters     [][]ecc.Code
	DACBits     []int

	// OnGeneration, when non-nil, receives the archive front after each
	// generation's evaluation (gen counts from 0). Returning an error
	// aborts the campaign with that error. The slice is a deep copy.
	OnGeneration func(gen int, front []Point) error
}

// Point is one archived design point: the decoded spec, the encoded
// position that produced it, and its three objective metrics.
type Point struct {
	Spec     CandidateSpec
	Position []float64
	// EnergyPerBitJ is total network power over delivered payload.
	EnergyPerBitJ float64
	// P99LatencySec is the traffic-weighted 99th-percentile latency at
	// half the saturation injection rate.
	P99LatencySec float64
	// SaturationBitsPerSec is the per-tile saturation injection rate.
	SaturationBitsPerSec float64
}

// clone deep-copies the point.
func (p Point) clone() Point {
	p.Position = append([]float64(nil), p.Position...)
	p.Spec.Roster = append([]string(nil), p.Spec.Roster...)
	return p
}

// Result is a finished campaign.
type Result struct {
	// Front is the final archive: mutually non-dominated points in the
	// canonical (energy, latency, −saturation) order.
	Front []Point
	// Generations and Particles echo the campaign shape.
	Generations int
	Particles   int
	// Evaluated counts candidate evaluations (particles × generations),
	// repeats of a design already seen included, though each distinct
	// design reaches the engine once; Infeasible counts the ones that
	// produced no archivable point — designs the wavelength grid cannot
	// carry, rosters that cannot close a link at the target BER, DACs that
	// cannot program the winner.
	Evaluated  int
	Infeasible int
}

// particle is one swarm member: its RNG stream, kinematic state and
// personal best.
type particle struct {
	rng     *rand.Rand
	pos     []float64
	vel     []float64
	best    []float64
	bestObj [3]float64
	hasBest bool
}

// score is what a campaign reads of one candidate's evaluation: whether it
// is feasible and, if so, its three objective values.
type score struct {
	feasible               bool
	energy, p99, saturated float64
}

// design is one distinct design of a campaign: its decoded spec and, once
// its batch has run, its score.
type design struct {
	spec  CandidateSpec
	score score
}

// resolve validates the options, applies defaults and builds the campaign
// space.
func (o Options) resolve(eng *engine.Engine) (Options, *space, error) {
	fail := func(format string, args ...any) (Options, *space, error) {
		return o, nil, fmt.Errorf("%w: tune: %s", apierr.ErrInvalidInput, fmt.Sprintf(format, args...))
	}
	if math.IsNaN(o.TargetBER) || o.TargetBER <= 0 || o.TargetBER >= 0.5 {
		return fail("target BER %g outside (0, 0.5)", o.TargetBER)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Particles == 0 {
		o.Particles = DefaultParticles
	}
	if o.Generations == 0 {
		o.Generations = DefaultGenerations
	}
	if o.ArchiveCap == 0 {
		o.ArchiveCap = DefaultArchiveCap
	}
	if o.Particles < 1 || o.Generations < 1 || o.ArchiveCap < 1 {
		return fail("particles %d, generations %d and archive cap %d must be positive", o.Particles, o.Generations, o.ArchiveCap)
	}
	if o.Kinds == nil {
		o.Kinds = []noc.Kind{noc.Bus, noc.Ring, noc.Mesh}
	}
	if o.Tiles == nil {
		o.Tiles = []int{8, 12, 16}
	}
	if o.Wavelengths == nil {
		o.Wavelengths = []int{0}
	}
	if o.Rosters == nil {
		o.Rosters = defaultRosters(eng.Schemes())
	}
	if o.DACBits == nil {
		o.DACBits = []int{0, 4, 6, 8}
	}
	if len(o.Kinds) == 0 || len(o.Tiles) == 0 || len(o.Wavelengths) == 0 || len(o.Rosters) == 0 || len(o.DACBits) == 0 {
		return fail("every design-space choice list needs at least one entry")
	}
	o.Tiles = sortedInts(o.Tiles)
	o.Wavelengths = sortedInts(o.Wavelengths)
	o.DACBits = sortedInts(o.DACBits)
	for _, t := range o.Tiles {
		if t < 2 || t > noc.MaxTiles {
			return fail("tile choice %d must be between 2 and %d", t, noc.MaxTiles)
		}
	}
	for _, w := range o.Wavelengths {
		if w < 0 || w > noc.MaxWavelengths {
			return fail("wavelength choice %d must be between 0 and %d", w, noc.MaxWavelengths)
		}
	}
	for _, b := range o.DACBits {
		if b != 0 {
			if err := (manager.DAC{Bits: b, MaxOpticalW: manager.PaperDAC().MaxOpticalW}).Validate(); err != nil {
				return fail("DAC choice: %v", err)
			}
		}
	}
	for i, r := range o.Rosters {
		if len(r) == 0 {
			return fail("roster choice %d is empty", i)
		}
		for _, c := range r {
			if c == nil {
				return fail("roster choice %d holds a nil code", i)
			}
		}
	}
	if o.Pattern == netsim.Hotspot && o.HotspotNode >= o.Tiles[0] {
		return fail("hotspot node %d outside the smallest tile choice %d", o.HotspotNode, o.Tiles[0])
	}

	sp := &space{
		kinds:       o.Kinds,
		tiles:       o.Tiles,
		wavelengths: o.Wavelengths,
		rosters:     o.Rosters,
		dacBits:     o.DACBits,
		targetBER:   o.TargetBER,
		objective:   o.Objective,
		messageBits: o.MessageBits,
		pattern:     o.Pattern,
		hotNode:     o.HotspotNode,
		hotFrac:     o.HotspotFraction,
		engineCfg:   eng.Config(),
		dacMaxW:     manager.PaperDAC().MaxOpticalW,
		bases:       make(map[int]core.LinkConfig),
		dacs:        make(map[int]*manager.DAC),
		traffic:     make(map[int]noc.Matrix),
		divisors:    make(map[int][]int),
	}
	return o, sp, nil
}

// Run executes one campaign against the engine and returns the final
// Pareto front. It is deterministic from Options.Seed: same options and
// engine roster produce the identical Result regardless of the engine's
// worker count.
func Run(ctx context.Context, eng *engine.Engine, opts Options) (*Result, error) {
	opts, sp, err := opts.resolve(eng)
	if err != nil {
		return nil, err
	}

	parts := make([]*particle, opts.Particles)
	for i := range parts {
		p := &particle{
			rng:  rand.New(rand.NewSource(mc.DeriveSeed(opts.Seed, i))),
			pos:  make([]float64, dims),
			vel:  make([]float64, dims),
			best: make([]float64, dims),
		}
		for d := range p.pos {
			p.pos[d] = p.rng.Float64()
		}
		parts[i] = p
	}

	arch := &archive{cap: opts.ArchiveCap}
	res := &Result{Generations: opts.Generations, Particles: opts.Particles}
	// designs holds every design the campaign has decoded, in order of
	// first sighting, and seen indexes it by key: a design reaches the
	// engine once, in the generation that first sights it, and a repeat
	// copies its score. cur[i] is particle i's design this generation.
	var (
		designs []design
		cands   []engine.NetworkCandidate
	)
	seen := make(map[designKey]int, opts.Particles)
	cur := make([]int, opts.Particles)

	for gen := 0; gen < opts.Generations; gen++ {
		// The generation's first sightings append to designs in particle
		// order, so cands[j] is the candidate of designs[first+j].
		first := len(designs)
		cands = cands[:0]
		for i, p := range parts {
			k := sp.bins(p.pos)
			j, ok := seen[k]
			if !ok {
				spec, cand, err := sp.decode(k)
				if err != nil {
					return nil, fmt.Errorf("%w: tune: %v", apierr.ErrInvalidInput, err)
				}
				j = len(designs)
				seen[k] = j
				designs = append(designs, design{spec: spec})
				cands = append(cands, cand)
			}
			cur[i] = j
		}
		if len(cands) > 0 {
			fresh := designs[first:]
			err = eng.NetworkBatchEach(ctx, cands, func(j int, r *noc.Result, cerr *engine.CandidateError) {
				if cerr != nil || !r.Feasible {
					return
				}
				fresh[j].score = score{
					feasible:  true,
					energy:    r.EnergyPerBitJ,
					p99:       r.P99LatencySec,
					saturated: r.SaturationInjectionBitsPerSec,
				}
			}, engine.BatchOptions{ContinueOnError: true})
		} else {
			err = ctx.Err()
		}
		if err != nil {
			return nil, err // terminal: cancellation, deadline, engine fault
		}

		for i, p := range parts {
			res.Evaluated++
			d := &designs[cur[i]]
			sc := &d.score
			if !sc.feasible {
				res.Infeasible++
				continue
			}
			pt := Point{
				Spec:                 d.spec,
				Position:             append([]float64(nil), p.pos...),
				EnergyPerBitJ:        sc.energy,
				P99LatencySec:        sc.p99,
				SaturationBitsPerSec: sc.saturated,
			}
			arch.add(pt)
			obj := objectives(&pt)
			switch {
			case !p.hasBest:
				p.hasBest = true
				copy(p.best, p.pos)
				p.bestObj = obj
			case dominates(obj, p.bestObj):
				copy(p.best, p.pos)
				p.bestObj = obj
			case dominates(p.bestObj, obj) || obj == p.bestObj:
				// Keep the incumbent.
			default:
				// Mutually non-dominated: the particle's own stream flips
				// the coin, so the choice is deterministic per seed.
				if p.rng.Intn(2) == 0 {
					copy(p.best, p.pos)
					p.bestObj = obj
				}
			}
		}

		// Canonicalize the archive order before any RNG touches it: leader
		// selection below indexes the sorted archive, so insertion order
		// (and whether a callback observed the front) never shifts draws.
		arch.sort()
		if opts.OnGeneration != nil {
			if err := opts.OnGeneration(gen, arch.front()); err != nil {
				return nil, err
			}
		}
		if gen == opts.Generations-1 {
			break
		}

		for _, p := range parts {
			var leader []float64
			if len(arch.points) > 0 {
				leader = arch.points[p.rng.Intn(len(arch.points))].Position
			}
			for d := 0; d < dims; d++ {
				r1, r2 := p.rng.Float64(), p.rng.Float64()
				pb, gb := p.pos[d], p.pos[d]
				if p.hasBest {
					pb = p.best[d]
				}
				if leader != nil {
					gb = leader[d]
				}
				v := inertia*p.vel[d] + cognitive*r1*(pb-p.pos[d]) + social*r2*(gb-p.pos[d])
				v = math.Max(-maxVelocity, math.Min(maxVelocity, v))
				x := p.pos[d] + v
				// Reflect off the cube walls so boundary choices stay
				// reachable without piling probability on the clamp.
				if x < 0 {
					x, v = -x, -v
				}
				if x > 1 {
					x, v = 2-x, -v
				}
				p.vel[d] = v
				p.pos[d] = math.Max(0, math.Min(1, x))
			}
		}
	}

	res.Front = arch.front()
	return res, nil
}
