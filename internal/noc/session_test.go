package noc

import (
	"reflect"
	"testing"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/manager"
)

// hotspotMatrix concentrates 60% of every source's traffic on tile 0 and
// spreads the rest uniformly — a row-normalized non-uniform pattern.
func hotspotMatrix(tiles int) Matrix {
	m := make(Matrix, tiles)
	for s := range m {
		m[s] = make([]float64, tiles)
		others := tiles - 1
		if s == 0 {
			w := 1 / float64(others)
			for d := 1; d < tiles; d++ {
				m[s][d] = w
			}
			continue
		}
		rest := others - 1
		for d := 0; d < tiles; d++ {
			switch {
			case d == s:
			case d == 0:
				m[s][d] = 0.6
			default:
				m[s][d] = 0.4 / float64(rest)
			}
		}
	}
	return m
}

// TestEvalSessionMatchesFreshSession reuses one session across a chain of
// heterogeneous evaluations — different topology kinds, tile counts,
// traffic patterns and DAC settings — and requires every step to equal
// Decide + Aggregate on a fresh session bit for bit. Shrinking topologies
// after growing ones exercise stale-buffer reuse, and the nil-traffic
// steps read the uniform rule on every shape.
func TestEvalSessionMatchesFreshSession(t *testing.T) {
	base := core.DefaultConfig()
	codes := ecc.PaperSchemes()
	dac := manager.PaperDAC()
	sess := NewEvalSession()

	type step struct {
		cfg  Config
		opts EvalOptions
	}
	steps := []step{
		{Config{Kind: Crossbar, Tiles: 16, Base: base}, EvalOptions{TargetBER: 1e-11, Objective: manager.MinEnergy}},
		{Config{Kind: Mesh, Tiles: 16, Base: base}, EvalOptions{TargetBER: 1e-9, Objective: manager.MinPower}},
		{Config{Kind: Crossbar, Tiles: 8, Base: base}, EvalOptions{TargetBER: 1e-11, Objective: manager.MinEnergy, DAC: &dac}},
		{Config{Kind: Ring, Tiles: 8, Base: base}, EvalOptions{TargetBER: 1e-9, Objective: manager.MinEnergy, Traffic: hotspotMatrix(8)}},
		{Config{Kind: Crossbar, Tiles: 16, Base: base}, EvalOptions{TargetBER: 1e-11, Objective: manager.MinEnergy, InjectionRateBitsPerSec: 1e9}},
		{Config{Kind: Bus, Tiles: base.Channel.Topo.ONIs, Base: base}, EvalOptions{TargetBER: 1e-11, Objective: manager.MinEnergy}},
	}
	for i, st := range steps {
		net, err := Build(st.cfg)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		evals := solveNetwork(t, net, codes, st.opts.TargetBER)

		fresh := NewEvalSession()
		wantDec, err := fresh.Decide(net, evals, st.opts)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		want, err := fresh.Aggregate(net, wantDec, st.opts)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}

		gotDec, err := sess.Decide(net, evals, st.opts)
		if err != nil {
			t.Fatalf("step %d: session decide: %v", i, err)
		}
		if !reflect.DeepEqual(gotDec, wantDec) {
			t.Fatalf("step %d: reused session's decisions differ from a fresh one's", i)
		}
		got, err := sess.Aggregate(net, gotDec, st.opts)
		if err != nil {
			t.Fatalf("step %d: session aggregate: %v", i, err)
		}
		if !reflect.DeepEqual(*got, *want) {
			t.Fatalf("step %d: reused session's result differs from a fresh one's:\n%+v\nvs\n%+v", i, *got, *want)
		}
	}
}

// TestEvalSessionResultAliasing documents the session contract: the Result
// is overwritten by the next call, and Clone detaches it.
func TestEvalSessionResultAliasing(t *testing.T) {
	base := core.DefaultConfig()
	codes := ecc.PaperSchemes()
	sess := NewEvalSession()

	eval := func(ber float64) *Result {
		net, err := Build(Config{Kind: Crossbar, Tiles: 8, Base: base})
		if err != nil {
			t.Fatal(err)
		}
		opts := EvalOptions{TargetBER: ber, Objective: manager.MinEnergy}
		evals := solveNetwork(t, net, codes, ber)
		dec, err := sess.Decide(net, evals, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Aggregate(net, dec, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := eval(1e-9)
	snapshot := first.Clone()
	if !reflect.DeepEqual(*first, snapshot) {
		t.Fatal("clone differs from its source")
	}
	second := eval(1e-11)
	if first != second {
		t.Fatal("session returned distinct Result pointers across calls")
	}
	if snapshot.TargetBER != 1e-9 {
		t.Fatalf("clone BER mutated to %g", snapshot.TargetBER)
	}
	if &snapshot.Decisions[0] == &second.Decisions[0] {
		t.Fatal("clone shares decision storage with the session")
	}
	if &snapshot.Loads[0] == &second.Loads[0] {
		t.Fatal("clone shares load storage with the session")
	}
}

// TestEvalSessionZeroAlloc pins the zero-allocation contract of the
// session fast path: once warmed on a topology shape, Decide + Aggregate
// allocate nothing, across uniform and explicit traffic and with a DAC.
func TestEvalSessionZeroAlloc(t *testing.T) {
	base := core.DefaultConfig()
	codes := ecc.PaperSchemes()
	dac := manager.PaperDAC()
	net, err := Build(Config{Kind: Crossbar, Tiles: 16, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	evals := solveNetwork(t, net, codes, 1e-11)
	hot := hotspotMatrix(16)
	optsList := []EvalOptions{
		{TargetBER: 1e-11, Objective: manager.MinEnergy},
		{TargetBER: 1e-11, Objective: manager.MinPower, Traffic: hot, DAC: &dac},
	}
	sess := NewEvalSession()
	run := func() {
		for _, opts := range optsList {
			dec, err := sess.Decide(net, evals, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sess.Aggregate(net, dec, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm the buffers
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Errorf("session Decide+Aggregate allocated %.1f times per run, want 0", allocs)
	}
}
