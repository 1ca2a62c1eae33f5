package engine

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
)

func TestNewDefaults(t *testing.T) {
	e, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if e.Workers() < 1 {
		t.Errorf("default workers = %d", e.Workers())
	}
	if got := len(e.Schemes()); got != 3 {
		t.Errorf("default roster size = %d, want the paper's 3", got)
	}
	if e.ConfigFingerprint() == "" {
		t.Error("empty fingerprint")
	}
	if s := e.CacheStats(); s.Capacity != DefaultCacheEntries {
		t.Errorf("default cache capacity = %d, want %d", s.Capacity, DefaultCacheEntries)
	}
}

func TestOptionValidation(t *testing.T) {
	bad := core.DefaultConfig()
	bad.FmodHz = -1
	cases := []struct {
		name string
		opts []Option
	}{
		{"zero workers", []Option{WithWorkers(0)}},
		{"negative workers", []Option{WithWorkers(-4)}},
		{"negative cache", []Option{WithCache(-1)}},
		{"empty roster", []Option{WithSchemes()}},
		{"nil scheme", []Option{WithSchemes(ecc.MustHamming74(), nil)}},
		{"invalid config", []Option{WithConfig(bad)}},
		{"nil option", []Option{nil}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.opts...); !errors.Is(err, ErrInvalidConfig) {
				t.Errorf("want ErrInvalidConfig, got %v", err)
			}
		})
	}
}

func TestEvaluateInputValidation(t *testing.T) {
	e, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, ber := range []float64{0, -1e-9, 1, 2} {
		if _, err := e.Evaluate(ctx, ecc.MustHamming74(), ber); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("BER %g: want ErrInvalidInput, got %v", ber, err)
		}
	}
	if _, err := e.Evaluate(ctx, nil, 1e-11); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("nil code: want ErrInvalidInput, got %v", err)
	}
}

func TestEvaluateMatchesSequential(t *testing.T) {
	cfg := core.DefaultConfig()
	e, err := New(WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	ref := compiled(t, &cfg)
	for _, code := range ecc.ExtendedSchemes() {
		for _, ber := range []float64{1e-6, 1e-11, 1e-12} {
			want, err := ref.Evaluate(code, ber)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Evaluate(context.Background(), code, ber)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s @ %g: engine evaluation differs from sequential", code.Name(), ber)
			}
		}
	}
}

func TestCacheAccounting(t *testing.T) {
	e, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := e.Evaluate(ctx, ecc.MustHamming74(), 1e-11); err != nil {
		t.Fatal(err)
	}
	if s := e.CacheStats(); s.Misses != 1 || s.Hits != 0 || s.Entries != 1 {
		t.Errorf("after first solve: %+v", s)
	}
	for i := 0; i < 5; i++ {
		if _, err := e.Evaluate(ctx, ecc.MustHamming74(), 1e-11); err != nil {
			t.Fatal(err)
		}
	}
	s := e.CacheStats()
	if s.Misses != 1 || s.Hits != 5 || s.Entries != 1 {
		t.Errorf("after repeats: %+v", s)
	}
	if got := s.HitRate(); got < 0.83 || got > 0.84 {
		t.Errorf("hit rate = %g, want 5/6", got)
	}
}

func TestCacheDisabled(t *testing.T) {
	e, err := New(WithCache(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := e.Evaluate(ctx, ecc.MustHamming74(), 1e-11); err != nil {
			t.Fatal(err)
		}
	}
	s := e.CacheStats()
	if s.Hits != 0 || s.Misses != 0 || s.Entries != 0 || s.Capacity != 0 {
		t.Errorf("disabled cache should report zero lookup stats, got %+v", s)
	}
	// Every solve is cold without a cache, and each one takes time.
	if s.ColdSolves != 3 || s.ColdSolveTime <= 0 {
		t.Errorf("cold-solve accounting: %+v", s)
	}
}

// TestEngineOwnsFERPlans: an engine compiles each scheme's FER plan once
// and hands every instance of that scheme the same plan, while a second
// engine compiles its own — no plan outlives the engine that built it.
func TestEngineOwnsFERPlans(t *testing.T) {
	a, err := New(WithCache(0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(WithCache(0))
	if err != nil {
		t.Fatal(err)
	}
	if s := a.CacheStats(); s.FERPlans != 0 {
		t.Errorf("fresh engine holds %d plans", s.FERPlans)
	}
	if _, err := a.Evaluate(context.Background(), ecc.MustHamming74(), 1e-11); err != nil {
		t.Fatal(err)
	}
	p := a.schemeFor(ecc.MustHamming74()).plan // a distinct instance of the solved code
	if s := a.CacheStats(); s.FERPlans != 1 || s.FERPlanMisses != 1 || s.FERPlanHits != 1 {
		t.Errorf("plans after one scheme = %d (%d hits, %d misses), want 1 (1 hit, 1 miss)",
			s.FERPlans, s.FERPlanHits, s.FERPlanMisses)
	}
	if a.schemeFor(ecc.MustHamming74()).plan != p {
		t.Error("one engine must hand every H(7,4) instance the same plan")
	}
	if a.schemeFor(ecc.MustHamming7164()).plan == p {
		t.Error("distinct schemes must not share a plan")
	}
	if b.schemeFor(ecc.MustHamming74()).plan == p {
		t.Error("two engines must not share a plan")
	}
}

func TestColdSolveTiming(t *testing.T) {
	e, err := New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if s := e.CacheStats(); s.ColdSolves != 0 || s.AvgColdSolve() != 0 {
		t.Errorf("fresh engine: %+v", s)
	}
	// First solve is cold; repeats hit the cache and stay unaccounted.
	for i := 0; i < 4; i++ {
		if _, err := e.Evaluate(ctx, ecc.MustHamming74(), 1e-11); err != nil {
			t.Fatal(err)
		}
	}
	s := e.CacheStats()
	if s.ColdSolves != 1 {
		t.Errorf("cold solves = %d, want 1 (cache hits are not cold)", s.ColdSolves)
	}
	if s.ColdSolveTime <= 0 || s.AvgColdSolve() != s.ColdSolveTime {
		t.Errorf("timing: %+v (avg %v)", s, s.AvgColdSolve())
	}
	// A second distinct point adds exactly one more cold solve.
	if _, err := e.Evaluate(ctx, ecc.MustHamming74(), 1e-9); err != nil {
		t.Fatal(err)
	}
	s2 := e.CacheStats()
	if s2.ColdSolves != 2 || s2.ColdSolveTime < s.ColdSolveTime {
		t.Errorf("after second point: %+v", s2)
	}
	if avg := s2.AvgColdSolve(); avg != s2.ColdSolveTime/2 {
		t.Errorf("avg cold solve %v, want %v", avg, s2.ColdSolveTime/2)
	}
}

// TestMemoFlush: a cache of capacity c holds c distinct keys without
// dropping any, and key c+1 flushes every published entry, keeping only
// itself — for a tiny cache and for the default capacity, which is one
// memo, not partitions that flush before the whole budget is used.
func TestMemoFlush(t *testing.T) {
	ctx := context.Background()
	code := ecc.MustHamming74()
	for _, capacity := range []int{2, DefaultCacheEntries} {
		e, err := New(WithCache(capacity))
		if err != nil {
			t.Fatal(err)
		}
		bers := make([]float64, capacity+1) // distinct keys
		for i := range bers {
			bers[i] = 1e-10 * (1 + float64(i)/float64(capacity))
		}
		eval := func(ber float64) {
			t.Helper()
			if _, err := e.Evaluate(ctx, code, ber); err != nil {
				t.Fatalf("capacity %d, BER %g: %v", capacity, ber, err)
			}
		}
		for _, ber := range bers[:capacity] {
			eval(ber)
		}
		if s := e.CacheStats(); s.Entries != capacity || s.Misses != uint64(capacity) || s.Capacity != capacity {
			t.Fatalf("capacity %d, after fill: %+v", capacity, s)
		}
		// A full cache keeps every key resident: each one hits.
		for _, ber := range bers[:capacity] {
			eval(ber)
		}
		if s := e.CacheStats(); s.Hits != uint64(capacity) || s.Misses != uint64(capacity) {
			t.Fatalf("capacity %d: resident keys should all hit: %+v", capacity, s)
		}
		// Key c+1 flushes the published entries and stays resident itself.
		eval(bers[capacity])
		eval(bers[capacity])
		if s := e.CacheStats(); s.Entries != 1 || s.Hits != uint64(capacity+1) || s.Misses != uint64(capacity+1) {
			t.Fatalf("capacity %d, one key past the fill: %+v", capacity, s)
		}
		// A flushed key is solved again: it misses.
		eval(bers[0])
		if s := e.CacheStats(); s.Entries != 2 || s.Misses != uint64(capacity+2) || s.ColdSolves != s.Misses {
			t.Errorf("capacity %d: flushed key should re-miss: %+v", capacity, s)
		}
	}
}

func TestFingerprint(t *testing.T) {
	a, err := New()
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(WithConfig(core.DefaultConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if a.ConfigFingerprint() != b.ConfigFingerprint() {
		t.Error("identical configs must share a fingerprint")
	}
	cfg := core.DefaultConfig()
	cfg.Channel.Waveguide.LengthCM = 9
	c, err := New(WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if a.ConfigFingerprint() == c.ConfigFingerprint() {
		t.Error("different configs must not share a fingerprint")
	}
	if Fingerprint(core.DefaultConfig()) != a.ConfigFingerprint() {
		t.Error("Fingerprint(cfg) must match the engine's own digest")
	}
	if Fingerprint(cfg) != c.ConfigFingerprint() {
		t.Error("Fingerprint(cfg) must match the digest of an engine over cfg")
	}
}

func TestConfigIsolation(t *testing.T) {
	cfg := core.DefaultConfig()
	e, err := New(WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Evaluate(context.Background(), ecc.MustHamming74(), 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating the caller's config (including its map) must not leak into
	// the engine.
	cfg.FmodHz = 1
	cfg.InterfacePowers["H(7,4)"] = core.InterfacePower{TransmitterW: 1, ReceiverW: 1}
	fresh, err := New(WithConfig(core.DefaultConfig()), WithCache(0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Evaluate(context.Background(), ecc.MustHamming74(), 1e-11)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e.Config().InterfacePowers, fresh.Config().InterfacePowers) {
		t.Error("engine config was mutated through the caller's map")
	}
	if got.ChannelPowerW != want.ChannelPowerW {
		t.Error("evaluations diverged after caller-side mutation")
	}
}

// TestNewAllocatedBytes bounds what building a default engine allocates.
// The memo cache's map grows with use; pre-sizing it for the full
// 4096-entry capacity cost ~475 KB per engine, which a campaign on a fresh
// engine paid before its first solve.
func TestNewAllocatedBytes(t *testing.T) {
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := New(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perNew := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("New allocates %d bytes", perNew)
	if perNew > 64<<10 {
		t.Errorf("New allocates %d bytes, want at most %d", perNew, 64<<10)
	}
}
