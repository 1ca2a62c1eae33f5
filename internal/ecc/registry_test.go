package ecc

import (
	"math/rand"
	"testing"

	"photonoc/internal/bits"
	"photonoc/internal/gf2"
)

func TestPaperSchemesRoster(t *testing.T) {
	schemes := PaperSchemes()
	if len(schemes) != 3 {
		t.Fatalf("len = %d", len(schemes))
	}
	wantNames := []string{"w/o ECC", "H(71,64)", "H(7,4)"}
	wantCT := []float64{1, 71.0 / 64.0, 1.75}
	for i, c := range schemes {
		if c.Name() != wantNames[i] {
			t.Errorf("scheme %d = %q, want %q", i, c.Name(), wantNames[i])
		}
		if !approx(CT(c), wantCT[i], 1e-12) {
			t.Errorf("%s CT = %g, want %g", c.Name(), CT(c), wantCT[i])
		}
	}
}

func TestExtendedSchemesAllRoundTrip(t *testing.T) {
	// Generic contract test over every registered scheme: clean encode →
	// decode restores the payload; t ≥ 1 schemes repair any single error.
	rng := rand.New(rand.NewSource(31))
	for _, c := range ExtendedSchemes() {
		for trial := 0; trial < 50; trial++ {
			data := randomData(rng, c.K())
			word, err := encode(c, data)
			if err != nil {
				t.Fatalf("%s: %v", c.Name(), err)
			}
			if word.Len() != c.N() {
				t.Fatalf("%s: wrong codeword length", c.Name())
			}
			got, info, err := decode(c, word)
			if err != nil || !got.Equal(data) || info.Detected {
				t.Fatalf("%s: clean roundtrip failed (%+v, %v)", c.Name(), info, err)
			}
			if c.T() >= 1 {
				pos := rng.Intn(c.N())
				word.Flip(pos)
				got, _, err := decode(c, word)
				if err != nil {
					t.Fatalf("%s: %v", c.Name(), err)
				}
				if !got.Equal(data) {
					t.Fatalf("%s: single error at %d not corrected", c.Name(), pos)
				}
			}
		}
	}
}

func TestSchemeByName(t *testing.T) {
	c, ok := SchemeByName("H(7,4)")
	if !ok || c.N() != 7 {
		t.Error("H(7,4) lookup failed")
	}
	if _, ok := SchemeByName("H(255,247)"); ok {
		t.Error("unknown scheme should not be found")
	}
}

// TestSchemeByNameSameInstance: the scheme table is built once, so every
// lookup of a name returns the one shared instance, the same one the roster
// functions hand out.
func TestSchemeByNameSameInstance(t *testing.T) {
	for _, c := range ExtendedSchemes() {
		a, ok := SchemeByName(c.Name())
		if !ok {
			t.Fatalf("%s: not found", c.Name())
		}
		b, _ := SchemeByName(c.Name())
		if a != b || a != c {
			t.Errorf("%s: lookups and ExtendedSchemes disagree on the instance", c.Name())
		}
	}
	for i, c := range PaperSchemes() {
		if c != ExtendedSchemes()[i] {
			t.Errorf("paper scheme %d (%s) is not the extended roster's instance", i, c.Name())
		}
	}
}

// TestSchemeTableSlicesAreCopies: a caller that overwrites or appends to a
// roster slice owns that slice; the next call still returns the table.
func TestSchemeTableSlicesAreCopies(t *testing.T) {
	for name, roster := range map[string]func() []Code{"PaperSchemes": PaperSchemes, "ExtendedSchemes": ExtendedSchemes} {
		want := roster()
		got := roster()
		for i := range got {
			got[i] = nil
		}
		_ = append(got[:1], MustBCH157(), MustBCH157()) // writes into got's backing array
		again := roster()
		if len(again) != len(want) {
			t.Fatalf("%s: len %d after caller mutation, want %d", name, len(again), len(want))
		}
		for i := range want {
			if again[i] != want[i] {
				t.Errorf("%s[%d] changed after caller mutation", name, i)
			}
		}
	}
}

// TestSchemeTablePlansMatchPlanFor: each table entry carries the plan a
// fresh compile produces, bit for bit, and PlanFor hands out that one plan
// every time.
func TestSchemeTablePlansMatchPlanFor(t *testing.T) {
	for _, c := range ExtendedSchemes() {
		table := PlanFor(c)
		if table != PlanFor(c) || table.Code() != c {
			t.Fatalf("%s: PlanFor must return the table's one plan for the table's instance", c.Name())
		}
		fresh := compilePlan(c)
		for _, pe := range []float64{1e-9, 1e-6, 1e-4, 1e-2} {
			if a, b := table.FrameErrorRate(pe), fresh.FrameErrorRate(pe); a != b {
				t.Errorf("%s: FrameErrorRate(%g) table %v, fresh %v", c.Name(), pe, a, b)
			}
		}
		for _, target := range []float64{1e-12, 1e-9, 1e-6} {
			a, errA := table.RequiredRawBER(target)
			b, errB := fresh.RequiredRawBER(target)
			if a != b || (errA == nil) != (errB == nil) {
				t.Errorf("%s: RequiredRawBER(%g) table %v (%v), fresh %v (%v)", c.Name(), target, a, errA, b, errB)
			}
		}
	}
}

// TestSchemeTableCustomCodeSameName: table membership is by identity, so a
// second code named "H(7,4)" — the same construction or a different code
// altogether — gets its own plan, never the table's.
func TestSchemeTableCustomCodeSameName(t *testing.T) {
	table, _ := SchemeByName("H(7,4)")
	p := gf2.NewMatrix(4, 1)
	for i := 0; i < 4; i++ {
		p.Set(i, 0, 1)
	}
	impostor, err := NewLinear("H(7,4)", p, 0) // a (5,4) parity code
	if err != nil {
		t.Fatal(err)
	}
	for _, custom := range []Code{MustHamming74(), impostor} {
		plan := PlanFor(custom)
		if plan == PlanFor(table) || plan.Code() != custom {
			t.Errorf("custom %s (n=%d) received the table's plan", custom.Name(), custom.N())
		}
	}
	if got, want := PlanFor(impostor).FrameErrorRate(1e-3), compilePlan(impostor).FrameErrorRate(1e-3); got != want {
		t.Errorf("impostor FER %v, want its own plan's %v", got, want)
	}
}

func TestDescribeFormat(t *testing.T) {
	got := Describe(MustHamming74())
	want := "H(7,4): (n=7, k=4, t=1) rate=0.571 CT=1.750"
	if got != want {
		t.Errorf("Describe = %q, want %q", got, want)
	}
}

func TestRateOverheadConsistency(t *testing.T) {
	for _, c := range ExtendedSchemes() {
		o := float64(c.N()-c.K()) / float64(c.N()) // redundancy fraction
		if r := Rate(c); !approx(r+o, 1, 1e-12) {
			t.Errorf("%s: rate %g + overhead %g != 1", c.Name(), r, o)
		}
		if ct := CT(c); !approx(ct*Rate(c), 1, 1e-12) {
			t.Errorf("%s: CT·rate != 1", c.Name())
		}
	}
}

func BenchmarkHamming74Encode(b *testing.B) {
	code := MustHamming74()
	rng := rand.New(rand.NewSource(1))
	data := randomData(rng, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := encode(code, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHamming7164Encode(b *testing.B) {
	code := MustHamming7164()
	rng := rand.New(rand.NewSource(1))
	data := randomData(rng, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := encode(code, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHamming7164DecodeWithError(b *testing.B) {
	code := MustHamming7164()
	rng := rand.New(rand.NewSource(1))
	data := randomData(rng, 64)
	word, err := encode(code, data)
	if err != nil {
		b.Fatal(err)
	}
	word.Flip(17)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := decode(code, word); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBCH157DecodeDoubleError(b *testing.B) {
	code := MustBCH157()
	rng := rand.New(rand.NewSource(1))
	data := randomData(rng, 7)
	word, err := encode(code, data)
	if err != nil {
		b.Fatal(err)
	}
	word.Flip(3)
	word.Flip(11)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := decode(code, word); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchemeByName: a lookup reads the built table and must not
// allocate; the benchmark fails outright if it does, so it doubles as a
// zero-allocation gate.
func BenchmarkSchemeByName(b *testing.B) {
	names := []string{"w/o ECC", "H(71,64)", "H(7,4)", "Parity(65,64)"}
	if allocs := testing.AllocsPerRun(100, func() {
		for _, n := range names {
			if _, ok := SchemeByName(n); !ok {
				b.Fatalf("%s not found", n)
			}
		}
	}); allocs != 0 {
		b.Fatalf("SchemeByName allocates %v times per lookup round, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := SchemeByName(names[i%len(names)]); !ok {
			b.Fatal("lookup failed")
		}
	}
}

// randomDataBench avoids the unused warning for bits import in some builds.
var _ = bits.New
