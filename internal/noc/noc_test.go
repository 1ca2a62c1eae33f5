package noc

import (
	"reflect"
	"runtime"
	"testing"

	"photonoc/internal/core"
)

// buildAll enumerates every (kind, tiles) pair that is expected to build
// with the paper's 16-wavelength base grid, up to 9 tiles.
func buildAll(t *testing.T) map[Kind][]*Network {
	t.Helper()
	base := core.DefaultConfig()
	out := make(map[Kind][]*Network)
	for _, kind := range []Kind{Bus, Crossbar, Ring, Mesh} {
		for tiles := 2; tiles <= 9; tiles++ {
			net, err := Build(Config{Kind: kind, Tiles: tiles, Base: base})
			if err != nil {
				t.Fatalf("Build(%v, %d tiles): %v", kind, tiles, err)
			}
			out[kind] = append(out[kind], net)
		}
	}
	return out
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, kind := range []Kind{Bus, Crossbar, Ring, Mesh} {
		got, err := ParseKind(kind.String())
		if err != nil || got != kind {
			t.Errorf("ParseKind(%q) = %v, %v", kind.String(), got, err)
		}
	}
	if _, err := ParseKind("torus"); err == nil {
		t.Error("ParseKind accepted an unknown topology")
	}
}

func TestConfigValidate(t *testing.T) {
	base := core.DefaultConfig()
	bad := []Config{
		{Kind: Bus, Tiles: 1, Base: base},
		{Kind: Bus, Tiles: MaxTiles + 1, Base: base},
		{Kind: Mesh, Tiles: 1 << 62, Base: base},
		{Kind: Kind(99), Tiles: 4, Base: base},
		{Kind: Ring, Tiles: 17, Base: base},            // 16-λ grid, 17 readers
		{Kind: Mesh, Tiles: 6, Columns: 4, Base: base}, // 6 % 4 != 0
		{Kind: Bus, Tiles: 4, Base: base, TilePitchCM: -1},
		{Kind: Bus, Tiles: 4}, // zero Base
		{Kind: Bus, Tiles: 4, Base: wideBase(base, MaxWavelengths+1)},
	}
	for i, cfg := range bad {
		if _, err := Build(cfg); err == nil {
			t.Errorf("case %d: Build accepted invalid config %+v", i, cfg)
		}
	}
}

// TestEveryPairRouted is the exhaustive routing property: on every buildable
// small topology, every (src, dst) pair resolves to a verified path (Build
// runs verifyRoutes; this re-checks through the public API).
func TestEveryPairRouted(t *testing.T) {
	for kind, nets := range buildAll(t) {
		for _, net := range nets {
			for s := 0; s < net.Tiles(); s++ {
				for d := 0; d < net.Tiles(); d++ {
					path, err := net.Route(s, d)
					if err != nil {
						t.Fatalf("%v/%d: Route(%d,%d): %v", kind, net.Tiles(), s, d, err)
					}
					if s == d {
						if path != nil {
							t.Fatalf("%v/%d: self route %d not nil", kind, net.Tiles(), s)
						}
						continue
					}
					if len(path) == 0 {
						t.Fatalf("%v/%d: no route %d→%d", kind, net.Tiles(), s, d)
					}
					last, err := net.Link(path[len(path)-1])
					if err != nil {
						t.Fatal(err)
					}
					if last.Reader != d {
						t.Fatalf("%v/%d: route %d→%d ends at reader %d", kind, net.Tiles(), s, d, last.Reader)
					}
				}
			}
		}
	}
}

// TestNoWavelengthReuse is the exhaustive allocation property: on every
// buildable small topology no wavelength is claimed twice on a shared
// waveguide, blocks are contiguous, and every link config revalidates.
func TestNoWavelengthReuse(t *testing.T) {
	for kind, nets := range buildAll(t) {
		for _, net := range nets {
			if err := net.VerifyAllocation(); err != nil {
				t.Fatalf("%v/%d: %v", kind, net.Tiles(), err)
			}
			for _, l := range net.Links() {
				cfg := l.Config()
				if err := cfg.Validate(); err != nil {
					t.Fatalf("%v/%d link %d: %v", kind, net.Tiles(), l.ID, err)
				}
				if got := len(l.Lambdas); got != cfg.Channel.Grid.Count {
					t.Fatalf("%v/%d link %d: %d lambdas but grid count %d", kind, net.Tiles(), l.ID, got, cfg.Channel.Grid.Count)
				}
			}
		}
	}
}

// TestRingPartitionsGrid pins the shared-waveguide contract: a ring's links
// all ride waveguide 0 and together cover the full grid exactly once.
func TestRingPartitionsGrid(t *testing.T) {
	base := core.DefaultConfig()
	net, err := Build(Config{Kind: Ring, Tiles: 5, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, l := range net.Links() {
		if l.Waveguide != 0 {
			t.Fatalf("ring link %d on waveguide %d", l.ID, l.Waveguide)
		}
		for _, lam := range l.Lambdas {
			if seen[lam] {
				t.Fatalf("wavelength %d allocated twice", lam)
			}
			seen[lam] = true
		}
	}
	if len(seen) != base.Channel.Grid.Count {
		t.Fatalf("ring allocated %d of %d wavelengths", len(seen), base.Channel.Grid.Count)
	}
}

// TestBusDegenerateSpec pins the degenerate case: with Tiles equal to the
// base ONIs, every bus link's configuration is the base configuration, byte
// for byte.
func TestBusDegenerateSpec(t *testing.T) {
	base := core.DefaultConfig()
	net, err := Build(Config{Kind: Bus, Tiles: base.Channel.Topo.ONIs, Base: base})
	if err != nil {
		t.Fatal(err)
	}
	if net.NumLinks() != base.Channel.Topo.ONIs {
		t.Fatalf("bus has %d links for %d ONIs", net.NumLinks(), base.Channel.Topo.ONIs)
	}
	for _, l := range net.Links() {
		if cfg := l.Config(); !reflect.DeepEqual(cfg, base) {
			t.Fatalf("bus link %d config differs from the base:\n%+v\nvs\n%+v", l.ID, cfg, base)
		}
	}
}

// TestCrossbarDistinctBudgets checks the per-link geometry contract: every
// crossbar reader sees a different waveguide length, monotone in position.
func TestCrossbarDistinctBudgets(t *testing.T) {
	net, err := Build(Config{Kind: Crossbar, Tiles: 6, Base: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	links := net.Links()
	for i := 1; i < len(links); i++ {
		if links[i].LengthCM >= links[i-1].LengthCM {
			t.Fatalf("crossbar lengths not strictly decreasing with reader: %g then %g", links[i-1].LengthCM, links[i].LengthCM)
		}
		if reflect.DeepEqual(links[i].Config(), links[i-1].Config()) {
			t.Fatalf("crossbar links %d and %d share a configuration", i-1, i)
		}
	}
}

// TestMeshShape pins the rows×cols layout and link sharing structure.
func TestMeshShape(t *testing.T) {
	net, err := Build(Config{Kind: Mesh, Tiles: 6, Columns: 3, Base: core.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := net.MeshShape()
	if rows != 2 || cols != 3 {
		t.Fatalf("mesh shape %dx%d, want 2x3", rows, cols)
	}
	// 2 rows × 3 row links + 3 cols × 2 col links.
	if net.NumLinks() != 12 {
		t.Fatalf("mesh has %d links, want 12", net.NumLinks())
	}
	// Same-column row links in different rows share a derived config.
	links := net.Links()
	if !reflect.DeepEqual(links[0].Config(), links[3].Config()) {
		t.Error("row links in the same column position do not share a configuration")
	}
	// XY route: (0,0) → (1,2) crosses row link to (0,2), then column link.
	path, err := net.Route(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 {
		t.Fatalf("mesh corner route has %d hops, want 2", len(path))
	}
	mid, _ := net.Link(path[0])
	if mid.Reader != 2 {
		t.Fatalf("XY route turns at tile %d, want 2", mid.Reader)
	}
}

func TestSubgridFullBlockIsBase(t *testing.T) {
	base := core.DefaultConfig().Channel.Grid
	if got := subgrid(base, fullGrid(base.Count)); got != base {
		t.Fatalf("full-block subgrid %+v != base %+v", got, base)
	}
	block := subgrid(base, []int{4, 5, 6, 7})
	if block.Count != 4 || block.SpacingNM != base.SpacingNM {
		t.Fatalf("subgrid shape wrong: %+v", block)
	}
	// The block's comb must land exactly on the base comb.
	for i := 0; i < 4; i++ {
		want := base.Wavelength(4 + i)
		if got := block.Wavelength(i); !closeRel(got, want, 1e-12) {
			t.Fatalf("subgrid λ%d = %.9f, want %.9f", i, got, want)
		}
	}
}

func closeRel(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := b
	if m < 0 {
		m = -m
	}
	return d <= tol*m
}

// wideBase resizes a base configuration's wavelength grid and topology
// count together.
func wideBase(base core.LinkConfig, wavelengths int) core.LinkConfig {
	base.Channel.Grid.Count = wavelengths
	base.Channel.Topo.Wavelengths = wavelengths
	return base
}

// BenchmarkBuild measures Build at the serving sizes and at the tile and
// wavelength bounds, where the link table and the route check set the
// cost.
func BenchmarkBuild(b *testing.B) {
	base := core.DefaultConfig()
	wide := wideBase(base, MaxWavelengths)
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"crossbar-16", Config{Kind: Crossbar, Tiles: 16, Base: base}},
		{"mesh-4x4", Config{Kind: Mesh, Tiles: 16, Columns: 4, Base: base}},
		{"bus-512", Config{Kind: Bus, Tiles: MaxTiles, Base: base}},
		{"crossbar-512", Config{Kind: Crossbar, Tiles: MaxTiles, Base: base}},
		{"ring-512-λ512", Config{Kind: Ring, Tiles: MaxTiles, Base: wide}},
		{"crossbar-512-λ512", Config{Kind: Crossbar, Tiles: MaxTiles, Base: wide}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(bc.cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBuildAllocatedBytes bounds what a build at the tile bound allocates,
// so no per-pair table comes back: a 512-tile crossbar's 512 links, with
// their configurations and fingerprints, take well under 1 MiB, while
// stored writer lists (512 × 511 ints) alone take 2 MiB and a t² table of
// routes over 8 MiB.
func TestBuildAllocatedBytes(t *testing.T) {
	const runs = 3
	cfg := Config{Kind: Crossbar, Tiles: MaxTiles, Base: core.DefaultConfig()}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := Build(cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perBuild := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("a %d-tile crossbar Build allocates %d bytes", MaxTiles, perBuild)
	if perBuild > 1<<20 {
		t.Errorf("a %d-tile crossbar Build allocates %d bytes, want at most %d", MaxTiles, perBuild, 1<<20)
	}
}
