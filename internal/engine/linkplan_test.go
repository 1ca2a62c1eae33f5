package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/manager"
	"photonoc/internal/noc"
)

// requireLinkMatchesCompile fails unless the engine's plan for link id of
// b equals LinkConfig.Compile of the link's own configuration bit for bit
// on every channel, and carries that configuration.
func requireLinkMatchesCompile(t *testing.T, name string, b *builtNet, id int) {
	t.Helper()
	cfg := b.net.LinkRef(id).Config()
	want, err := cfg.Compile()
	if err != nil {
		t.Fatalf("%s link %d: %v", name, id, err)
	}
	got := b.links[id].compiled
	if !reflect.DeepEqual(got.Config(), cfg) {
		t.Fatalf("%s link %d: plan configuration differs from the link's", name, id)
	}
	gc, wc := got.LinkPlan().Channels(), want.LinkPlan().Channels()
	bits := math.Float64bits
	for ch := range wc {
		g, w := gc[ch], wc[ch]
		if bits(g.BudgetDB) != bits(w.BudgetDB) || bits(g.Chi) != bits(w.Chi) || bits(g.EyeFraction) != bits(w.EyeFraction) {
			t.Fatalf("%s link %d channel %d: plan %+v != compile %+v", name, id, ch, g, w)
		}
		// The linear budget enters the optical power as a factor.
		gop, gerr := got.LinkPlan().OperatingPoint(111.68, ch)
		wop, werr := want.LinkPlan().OperatingPoint(111.68, ch)
		if gop != wop || (gerr == nil) != (werr == nil) {
			t.Fatalf("%s link %d channel %d: operating point %+v != %+v", name, id, ch, gop, wop)
		}
	}
}

// TestLinkPlansMatchCompile holds every link plan the engine derives from
// a shared block plan to the link's own compile, on every kind and tile
// count of the routing oracle sweep, the 512-tile bus and crossbar, and
// a crossbar over a 512-channel grid.
func TestLinkPlansMatchCompile(t *testing.T) {
	var cfgs []noc.Config
	for tiles := 2; tiles <= 64; tiles++ {
		for _, kind := range []noc.Kind{noc.Bus, noc.Crossbar, noc.Ring} {
			cfgs = append(cfgs, noc.Config{Kind: kind, Tiles: tiles})
		}
		cfgs = append(cfgs, noc.Config{Kind: noc.Mesh, Tiles: tiles})
		for cols := 1; cols <= tiles; cols++ {
			if tiles%cols == 0 {
				cfgs = append(cfgs, noc.Config{Kind: noc.Mesh, Tiles: tiles, Columns: cols})
			}
		}
	}
	cfgs = append(cfgs, noc.Config{Kind: noc.Bus, Tiles: noc.MaxTiles}, noc.Config{Kind: noc.Crossbar, Tiles: noc.MaxTiles})
	e := newNetEngine(t, ecc.PaperSchemes())
	built := 0
	for _, cfg := range cfgs {
		b, err := e.build(cfg)
		if err != nil {
			continue // a count the 16-channel grid cannot carry
		}
		built++
		name := fmt.Sprintf("%v/%d/cols=%d", cfg.Kind, cfg.Tiles, cfg.Columns)
		for id := range b.links {
			requireLinkMatchesCompile(t, name, b, id)
		}
	}
	if built < len(cfgs)/2 {
		t.Fatalf("only %d of %d configurations built", built, len(cfgs))
	}

	// Over a 512-channel grid every crossbar link shares the one full-grid
	// block; a link's own compile costs O(G²), so check a sample.
	wide := newNetEngine(t, ecc.PaperSchemes())
	b, err := wide.build(wideCrossbar())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 1, 255, 510, 511} {
		requireLinkMatchesCompile(t, "λ512 crossbar/512", b, id)
	}
}

// wideCrossbar is a 512-tile crossbar over a 512-channel grid.
func wideCrossbar() noc.Config {
	base := core.DefaultConfig()
	base.Channel.Grid.Count, base.Channel.Topo.Wavelengths = noc.MaxWavelengths, noc.MaxWavelengths
	return noc.Config{Kind: noc.Crossbar, Tiles: noc.MaxTiles, Base: base}
}

// TestWideCrossbarCompilesOneBlock is the O(G)-per-link pin: a cold
// 512-tile crossbar over a 512-channel grid compiles one block plan, whose
// cost grows as G², and derives each of its 512 distinct links from it.
func TestWideCrossbarCompilesOneBlock(t *testing.T) {
	e := newNetEngine(t, ecc.PaperSchemes())
	start := time.Now()
	res, err := e.Network(context.Background(), wideCrossbar(), noc.EvalOptions{TargetBER: 1e-11, Objective: manager.MinEnergy})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cold λ512 crossbar-512 Network: %v", time.Since(start))
	if res.Links != noc.MaxTiles {
		t.Fatalf("%d links, want %d", res.Links, noc.MaxTiles)
	}
	s := e.CacheStats()
	if s.BlockPlanMisses != 1 || s.BlockPlans != 1 {
		t.Fatalf("block plans: %d entries, %d misses; want one block compiled once", s.BlockPlans, s.BlockPlanMisses)
	}
	if s.BlockPlanHits != noc.MaxTiles-1 || s.LinkPlanMisses != noc.MaxTiles {
		t.Fatalf("block hits %d, link misses %d; want %d and %d", s.BlockPlanHits, s.LinkPlanMisses, noc.MaxTiles-1, noc.MaxTiles)
	}
}

// TestBlockInternNeverAliases drives one engine over more distinct
// wavelength blocks than a registry holds — 16-tile rings, one block per
// reader, over 40 base configurations — twice over, on two workers, so the
// block registry flushes while the link registry and the memo cache still
// hold entries keyed by the block IDs handed out before the flush. Every
// result must equal a cache-less engine's bit for bit.
func TestBlockInternNeverAliases(t *testing.T) {
	codes := ecc.PaperSchemes()
	var cands []NetworkCandidate
	for i := 0; i < 40; i++ {
		base := core.DefaultConfig()
		base.Channel.Waveguide.LossDBPerCM += 0.001 * float64(i)
		cands = append(cands, NetworkCandidate{
			Topology: noc.Config{Kind: noc.Ring, Tiles: 16, Base: base},
			Opts:     noc.EvalOptions{TargetBER: 1e-11, Objective: manager.MinEnergy},
		})
	}
	cands = append(cands, cands...)

	e := newNetEngine(t, codes, WithWorkers(2))
	got, err := e.NetworkBatch(context.Background(), cands)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.BlockPlanMisses <= registryCap || s.BlockPlans >= 40*16 {
		t.Fatalf("%d block misses, %d block plans held: the registry never flushed", s.BlockPlanMisses, s.BlockPlans)
	}
	ref := newNetEngine(t, codes, WithWorkers(2), WithCache(0))
	want, err := ref.NetworkBatch(context.Background(), cands)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cands {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("candidate %d differs from the cache-less engine", i)
		}
	}
}

// setFloatLeaf walks v depth-first, as the fingerprint leaf walk does, and
// sets its n-th float leaf to x. It returns the leaf's path, or "" when v
// has at most n float leaves.
func setFloatLeaf(v reflect.Value, n *int, x float64, path string) string {
	switch v.Kind() {
	case reflect.Float64:
		if *n == 0 {
			v.SetFloat(x)
			return path
		}
		*n--
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := setFloatLeaf(v.Field(i), n, x, path+"."+v.Type().Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Map:
		for _, k := range v.MapKeys() {
			elem := reflect.New(v.Type().Elem()).Elem()
			elem.Set(v.MapIndex(k))
			if p := setFloatLeaf(elem, n, x, path+"["+k.String()+"]"); p != "" {
				v.SetMapIndex(k, elem)
				return p
			}
		}
	}
	return ""
}

// TestNewRejectsNonFinite sets every float leaf of the configuration to
// NaN, +Inf and −Inf in turn: New must refuse each with ErrInvalidConfig.
func TestNewRejectsNonFinite(t *testing.T) {
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		leaves := 0
		for ; ; leaves++ {
			cfg := core.DefaultConfig()
			n := leaves
			path := setFloatLeaf(reflect.ValueOf(&cfg).Elem(), &n, x, "LinkConfig")
			if path == "" {
				break
			}
			if _, err := New(WithConfig(cfg)); !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("%s = %g: New returned %v, want ErrInvalidConfig", path, x, err)
			}
		}
		// 28 float fields plus two per Table I interface-power entry.
		if want := 28 + 2*len(core.DefaultConfig().InterfacePowers); leaves != want {
			t.Errorf("walked %d float leaves, want %d", leaves, want)
		}
	}
}
