package main

import (
	"context"
	"fmt"
	"maps"
	"math"

	"photonoc"
	"photonoc/internal/core"
	"photonoc/internal/onocd"
)

// draw returns a uniform 64-bit value that depends only on (seed, stream,
// i): the splitmix64 finalizer over their mix. Workloads derive every input
// of op i from it, so any op can be replayed on its own.
func draw(seed int64, stream uint64, i int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + uint64(i)*0x94d049bb133111eb + 0x632be59bd9b4e5f
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Draw streams, one per use, so inputs of different kinds never share a
// sequence.
const (
	streamItem uint64 = iota + 1
	streamCampaign
	streamSim
	streamMC
)

// paperHeadline holds the Section V-C figures the paper states in prose.
var paperHeadline = struct {
	laserShare, h7164Cut, h74Cut, savingW float64
}{0.92, 0.45, 0.49, 22}

// paperErrPct is the largest relative error, in percent, of the Section V-C
// headline computed through ev against the paper's stated values.
func paperErrPct(ctx context.Context, ev photonoc.Evaluator) (float64, error) {
	cfg := photonoc.DefaultConfig()
	h, err := core.HeadlineWith(ctx, ev, &cfg, 1e-11)
	if err != nil {
		return 0, fmt.Errorf("headline: %w", err)
	}
	rel := func(got, want float64) float64 { return math.Abs(got/want-1) * 100 }
	return max(
		rel(h.LaserShareUncoded, paperHeadline.laserShare),
		rel(h.ChannelReduction["H(71,64)"], paperHeadline.h7164Cut),
		rel(h.ChannelReduction["H(7,4)"], paperHeadline.h74Cut),
		rel(h.InterconnectSavingW, paperHeadline.savingW),
	), nil
}

// fixtures are the hand-picked referee topologies: the paper's 12-tile bus,
// a 16-tile ring and a 4×4 mesh.
var fixtures = []photonoc.NoCConfig{
	{Kind: photonoc.NoCBus, Tiles: 12},
	{Kind: photonoc.NoCRing, Tiles: 16},
	{Kind: photonoc.NoCMesh, Tiles: 16, Columns: 4},
}

// Reference DES settings for model_gap_pct: a fixed seed and message count,
// so the figure moves only when the analytic model or the simulator does.
const (
	gapSeed     = 1
	gapMessages = 50000
)

// modelGapPct is the largest |DES / analytic − 1| of mean end-to-end
// latency, in percent, over the fixtures at half the analytic saturation
// rate.
func modelGapPct(ctx context.Context, eng *photonoc.Engine) (float64, error) {
	gap := 0.0
	for _, topo := range fixtures {
		ana, err := eng.Network(ctx, topo, photonoc.NoCEvalOptions{TargetBER: 1e-11})
		if err != nil {
			return 0, err
		}
		sim, err := eng.SimulateNetwork(ctx, topo, photonoc.NoCSimOptions{
			TargetBER: 1e-11, Messages: gapMessages, Seed: gapSeed,
		})
		if err != nil {
			return 0, err
		}
		gap = max(gap, math.Abs(sim.MeanLatencySec/ana.MeanLatencySec-1)*100)
	}
	return gap, nil
}

// inProcessAccuracy computes both accuracy figures on a fresh default
// Engine.
func inProcessAccuracy(ctx context.Context) (paperErr, modelGap float64, err error) {
	eng, err := photonoc.New()
	if err != nil {
		return 0, 0, err
	}
	if paperErr, err = paperErrPct(ctx, eng); err != nil {
		return 0, 0, err
	}
	modelGap, err = modelGapPct(ctx, eng)
	return paperErr, modelGap, err
}

// same reports bit-for-bit equality of two floats (NaN equals NaN).
func same(a, b float64) bool { return a == b || (a != a && b != b) }

// sameWireEval compares a served operating point with an in-process one
// field by field; the code is compared by its registry name, the identity
// the wire carries. It reads the wire form directly: rebuilding the
// in-process form resolves the name by constructing every registered code,
// which would cost more than the request under test.
func sameWireEval(a *onocd.Evaluation, b *photonoc.Evaluation) bool {
	return a.Scheme == b.Code.Name() &&
		same(a.TargetBER, b.TargetBER) && same(a.RawBER, b.RawBER) &&
		same(a.SNR, b.SNR) && same(a.CT, b.CT) && a.Op == b.Op &&
		same(a.LaserPowerW, b.LaserPowerW) && same(a.ModulatorPowerW, b.ModulatorPowerW) &&
		same(a.InterfacePowerW, b.InterfacePowerW) && same(a.ChannelPowerW, b.ChannelPowerW) &&
		same(a.EnergyPerBitJ, b.EnergyPerBitJ) &&
		a.Feasible == b.Feasible && a.InfeasibleReason == b.InfeasibleReason
}

// sameNoC compares two network evaluations: every aggregate, every link
// load, and every link decision as the wire carries it (the winning
// scheme's name and CT stand for its full evaluation).
func sameNoC(a, b *photonoc.NoCResult) bool {
	if a.Kind != b.Kind || a.Tiles != b.Tiles || a.Links != b.Links ||
		!same(a.TargetBER, b.TargetBER) || a.Feasible != b.Feasible ||
		a.InfeasibleReason != b.InfeasibleReason || a.Saturated != b.Saturated ||
		len(a.Decisions) != len(b.Decisions) || len(a.Loads) != len(b.Loads) ||
		!maps.Equal(a.SchemeUse, b.SchemeUse) {
		return false
	}
	for _, p := range [][2]float64{
		{a.SaturationInjectionBitsPerSec, b.SaturationInjectionBitsPerSec},
		{a.InjectionRateBitsPerSec, b.InjectionRateBitsPerSec},
		{a.DeliveredBitsPerSec, b.DeliveredBitsPerSec},
		{a.LaserPowerW, b.LaserPowerW}, {a.ModulatorPowerW, b.ModulatorPowerW},
		{a.InterfacePowerW, b.InterfacePowerW}, {a.NetworkPowerW, b.NetworkPowerW},
		{a.EnergyPerBitJ, b.EnergyPerBitJ}, {a.ActiveEnergyPerBitJ, b.ActiveEnergyPerBitJ},
		{a.MeanLatencySec, b.MeanLatencySec}, {a.P50LatencySec, b.P50LatencySec},
		{a.P95LatencySec, b.P95LatencySec}, {a.P99LatencySec, b.P99LatencySec},
		{a.MaxLatencySec, b.MaxLatencySec},
	} {
		if !same(p[0], p[1]) {
			return false
		}
	}
	for i := range a.Decisions {
		da, db := &a.Decisions[i], &b.Decisions[i]
		if da.Link != db.Link || schemeName(da.Eval.Code) != schemeName(db.Eval.Code) ||
			!same(da.Eval.CT, db.Eval.CT) || !same(da.LaserPowerW, db.LaserPowerW) ||
			da.DACCode != db.DACCode || !same(da.EnergyPerBitJ, db.EnergyPerBitJ) ||
			da.Feasible != db.Feasible || da.InfeasibleReason != db.InfeasibleReason {
			return false
		}
	}
	for i := range a.Loads {
		la, lb := a.Loads[i], b.Loads[i]
		if la.Link != lb.Link || !same(la.CapacityBitsPerSec, lb.CapacityBitsPerSec) ||
			!same(la.OfferedBitsPerSec, lb.OfferedBitsPerSec) || !same(la.Utilization, lb.Utilization) ||
			!same(la.QueueWaitSec, lb.QueueWaitSec) {
			return false
		}
	}
	return true
}

func schemeName(c photonoc.Code) string {
	if c == nil {
		return ""
	}
	return c.Name()
}
