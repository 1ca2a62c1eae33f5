package synth

import (
	"fmt"
	"reflect"
	"testing"

	"photonoc/internal/ecc"
)

func TestNetlistConstructionAndValidation(t *testing.T) {
	lib := DefaultLibrary()
	n := NewNetlist("t")
	a := n.AddInput("a")
	b := n.AddInput("b")
	x := n.AddGate(CellXor2, "x", a, b)
	n.MarkOutput(x, "y")
	if err := n.Validate(lib); err != nil {
		t.Fatal(err)
	}
	if n.NumGates() != 1 {
		t.Errorf("NumGates = %d", n.NumGates())
	}
	if got := n.CellCounts()[CellXor2]; got != 1 {
		t.Errorf("XOR2 count = %d", got)
	}
	if _, ok := n.Input("a"); !ok {
		t.Error("input a missing")
	}
	if _, ok := n.Output("y"); !ok {
		t.Error("output y missing")
	}
	if names := n.InputNames(); len(names) != 2 || names[0] != "a" {
		t.Errorf("InputNames = %v", names)
	}
	if names := n.OutputNames(); len(names) != 1 {
		t.Errorf("OutputNames = %v", names)
	}
}

func TestNetlistWrongInputCountFailsValidation(t *testing.T) {
	lib := DefaultLibrary()
	n := NewNetlist("bad")
	a := n.AddInput("a")
	n.AddGate(CellXor2, "x", a) // XOR2 needs two inputs
	if err := n.Validate(lib); err == nil {
		t.Error("wrong input count should fail validation")
	}
}

func TestNetlistPanics(t *testing.T) {
	n := NewNetlist("p")
	a := n.AddInput("a")
	cases := map[string]func(){
		"dup-input":   func() { n.AddInput("a") },
		"input-gate":  func() { n.AddGate(CellInput, "x") },
		"unknown-ref": func() { n.AddGate(CellBuf, "b", GateID(99)) },
		"dup-output":  func() { n.MarkOutput(a, "o"); n.MarkOutput(a, "o") },
		"bad-output":  func() { n.MarkOutput(GateID(99), "z") },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			f()
		}()
	}
}

func TestGateSimTruthTables(t *testing.T) {
	lib := DefaultLibrary()
	type tc struct {
		cell CellType
		ins  int
		f    func(v []int) int
	}
	cases := []tc{
		{CellBuf, 1, func(v []int) int { return v[0] }},
		{CellInv, 1, func(v []int) int { return v[0] ^ 1 }},
		{CellAnd2, 2, func(v []int) int { return v[0] & v[1] }},
		{CellOr2, 2, func(v []int) int { return v[0] | v[1] }},
		{CellXor2, 2, func(v []int) int { return v[0] ^ v[1] }},
		{CellMux2, 3, func(v []int) int {
			if v[2] == 1 {
				return v[1]
			}
			return v[0]
		}},
	}
	for _, c := range cases {
		n := NewNetlist(c.cell.String())
		ids := make([]GateID, c.ins)
		names := make([]string, c.ins)
		for i := range ids {
			names[i] = string(rune('a' + i))
			ids[i] = n.AddInput(names[i])
		}
		g := n.AddGate(c.cell, "g", ids...)
		n.MarkOutput(g, "y")
		sim, err := NewSimulator(n, lib)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 1<<c.ins; v++ {
			vals := make([]int, c.ins)
			for i := range vals {
				vals[i] = v >> i & 1
				if err := sim.SetInput(names[i], vals[i]); err != nil {
					t.Fatal(err)
				}
			}
			sim.Eval()
			got, err := sim.Output("y")
			if err != nil {
				t.Fatal(err)
			}
			if want := c.f(vals); got != want {
				t.Errorf("%v(%v) = %d, want %d", c.cell, vals, got, want)
			}
		}
	}
}

func TestDFFHoldsStateAcrossTicks(t *testing.T) {
	lib := DefaultLibrary()
	n := NewNetlist("dff")
	d := n.AddInput("d")
	q := n.AddGate(CellDFF, "q", d)
	n.MarkOutput(q, "q")
	sim, err := NewSimulator(n, lib)
	if err != nil {
		t.Fatal(err)
	}
	// Before any tick the state is zero regardless of the input.
	if err := sim.SetInput("d", 1); err != nil {
		t.Fatal(err)
	}
	sim.Eval()
	if v, _ := sim.Output("q"); v != 0 {
		t.Error("DFF should power up at 0")
	}
	sim.Tick()
	sim.Eval()
	if v, _ := sim.Output("q"); v != 1 {
		t.Error("DFF should hold the latched 1")
	}
	// Input change without a tick must not leak through.
	if err := sim.SetInput("d", 0); err != nil {
		t.Fatal(err)
	}
	sim.Eval()
	if v, _ := sim.Output("q"); v != 1 {
		t.Error("DFF output changed without a clock edge")
	}
}

func TestSimulatorErrors(t *testing.T) {
	lib := DefaultLibrary()
	n := NewNetlist("e")
	a := n.AddInput("a")
	n.MarkOutput(a, "y")
	sim, err := NewSimulator(n, lib)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetInput("nope", 1); err == nil {
		t.Error("unknown input should error")
	}
	if _, err := sim.Output("nope"); err == nil {
		t.Error("unknown output should error")
	}
	if _, err := sim.Step(map[string]int{"nope": 1}); err == nil {
		t.Error("Step with unknown input should error")
	}
}

func TestAnalyzeTimingKnownPath(t *testing.T) {
	// reg → XOR2 → XOR2 → reg: CP = clkq + 2·xor + setup.
	lib := DefaultLibrary()
	n := NewNetlist("cp")
	a := n.AddInput("a")
	r1 := n.AddGate(CellDFF, "r1", a)
	x1 := n.AddGate(CellXor2, "x1", r1, r1)
	x2 := n.AddGate(CellXor2, "x2", x1, r1)
	n.AddGate(CellDFF, "r2", x2)
	rep, err := AnalyzeTiming(n, lib, 1000, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := lib.Cells[CellDFF].DelayPS + 2*lib.Cells[CellXor2].DelayPS + lib.Cells[CellDFF].SetupPS
	if rep.CriticalPathPS != want {
		t.Errorf("CP = %g, want %g", rep.CriticalPathPS, want)
	}
	if rep.EndPoint != "r2" {
		t.Errorf("endpoint = %q", rep.EndPoint)
	}
}

func TestEstimateAreaAndPowerArithmetic(t *testing.T) {
	lib := DefaultLibrary()
	n := NewNetlist("a")
	x := n.AddInput("x")
	n.AddGate(CellXor2, "g1", x, x)
	n.AddGate(CellDFF, "g2", x)
	area, err := EstimateArea(n, lib)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := lib.Cells[CellXor2].AreaUM2 + lib.Cells[CellDFF].AreaUM2
	if area.CellAreaUM2 != wantCells {
		t.Errorf("cell area = %g, want %g", area.CellAreaUM2, wantCells)
	}
	if area.PlacedAreaUM2 != wantCells*lib.WiringAreaFactor {
		t.Errorf("placed area = %g", area.PlacedAreaUM2)
	}
	power, err := EstimatePower(n, lib, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	wantFJ := lib.Cells[CellDFF].ClockEnergyFJ +
		lib.CombActivity*(lib.Cells[CellXor2].ToggleEnergyFJ+lib.Cells[CellDFF].ToggleEnergyFJ)
	wantUW := wantFJ * 1e-15 * 1e9 * 1e6
	if diff := power.DynamicUW - wantUW; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("dynamic = %g µW, want %g", power.DynamicUW, wantUW)
	}
	wantStatic := (lib.Cells[CellXor2].LeakagePW + lib.Cells[CellDFF].LeakagePW) * 1e-3
	if diff := power.StaticNW - wantStatic; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("static = %g nW, want %g", power.StaticNW, wantStatic)
	}
}

// TestOutputNamesDeclarationOrder: outputs come back in MarkOutput order,
// so the Verilog export of a circuit is the same bytes on every run.
func TestOutputNamesDeclarationOrder(t *testing.T) {
	code := ecc.MustHamming74()
	var enc, dec []string
	for i := 0; i < code.N(); i++ {
		enc = append(enc, fmt.Sprintf("pre_c%d", i), fmt.Sprintf("c%d", i))
	}
	dec = append(dec, "pre_err")
	for i := 0; i < code.K(); i++ {
		dec = append(dec, fmt.Sprintf("pre_q%d", i), fmt.Sprintf("q%d", i))
	}
	if got := BuildEncoder(code).OutputNames(); !reflect.DeepEqual(got, enc) {
		t.Errorf("encoder OutputNames = %v, want %v", got, enc)
	}
	if got := BuildDecoder(code).OutputNames(); !reflect.DeepEqual(got, dec) {
		t.Errorf("decoder OutputNames = %v, want %v", got, dec)
	}
}
