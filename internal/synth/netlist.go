package synth

import "fmt"

// GateID identifies a gate within one netlist.
type GateID int

// Gate is one instantiated cell. Inputs reference earlier gates only
// (feed-forward netlists; flip-flops provide the sequential boundary).
type Gate struct {
	ID     GateID
	Type   CellType
	Name   string
	Inputs []GateID
}

// Netlist is a gate-level circuit under construction or analysis.
type Netlist struct {
	Name    string
	gates   []Gate
	inputs  map[string]GateID
	outputs map[string]GateID
	// inOrder and outOrder record declaration order, so every export and
	// report iterates the ports deterministically.
	inOrder  []string
	outOrder []string
}

// NewNetlist returns an empty netlist with the given block name.
func NewNetlist(name string) *Netlist {
	return &Netlist{
		Name:    name,
		inputs:  make(map[string]GateID),
		outputs: make(map[string]GateID),
	}
}

// AddInput declares a named primary input and returns its gate.
func (n *Netlist) AddInput(name string) GateID {
	if _, dup := n.inputs[name]; dup {
		panic(fmt.Sprintf("synth: duplicate input %q in %s", name, n.Name))
	}
	id := n.add(Gate{Type: CellInput, Name: name})
	n.inputs[name] = id
	n.inOrder = append(n.inOrder, name)
	return id
}

// AddGate instantiates a cell driven by the given signals.
func (n *Netlist) AddGate(t CellType, name string, ins ...GateID) GateID {
	if t == CellInput {
		panic("synth: use AddInput for primary inputs")
	}
	for _, in := range ins {
		if int(in) < 0 || int(in) >= len(n.gates) {
			panic(fmt.Sprintf("synth: gate %q references unknown signal %d", name, in))
		}
	}
	return n.add(Gate{Type: t, Name: name, Inputs: ins})
}

func (n *Netlist) add(g Gate) GateID {
	g.ID = GateID(len(n.gates))
	n.gates = append(n.gates, g)
	return g.ID
}

// MarkOutput declares an existing signal as a named primary output.
func (n *Netlist) MarkOutput(id GateID, name string) {
	if int(id) < 0 || int(id) >= len(n.gates) {
		panic(fmt.Sprintf("synth: output %q references unknown signal %d", name, id))
	}
	if _, dup := n.outputs[name]; dup {
		panic(fmt.Sprintf("synth: duplicate output %q in %s", name, n.Name))
	}
	n.outputs[name] = id
	n.outOrder = append(n.outOrder, name)
}

// Gates returns the gate list in construction (topological) order.
func (n *Netlist) Gates() []Gate { return n.gates }

// Input returns the gate of a named input.
func (n *Netlist) Input(name string) (GateID, bool) {
	id, ok := n.inputs[name]
	return id, ok
}

// Output returns the gate driving a named output.
func (n *Netlist) Output(name string) (GateID, bool) {
	id, ok := n.outputs[name]
	return id, ok
}

// InputNames returns the inputs in declaration order.
func (n *Netlist) InputNames() []string { return append([]string(nil), n.inOrder...) }

// OutputNames returns the outputs in declaration order.
func (n *Netlist) OutputNames() []string { return append([]string(nil), n.outOrder...) }

// CellCounts tallies instantiated cells by type (primary inputs excluded).
func (n *Netlist) CellCounts() map[CellType]int {
	counts := make(map[CellType]int)
	for _, g := range n.gates {
		if g.Type != CellInput {
			counts[g.Type]++
		}
	}
	return counts
}

// NumGates returns the number of real cells (primary inputs excluded).
func (n *Netlist) NumGates() int {
	total := 0
	for _, g := range n.gates {
		if g.Type != CellInput {
			total++
		}
	}
	return total
}

// Validate checks structural sanity: correct input counts per cell and
// feed-forward ordering (every gate only reads earlier signals).
func (n *Netlist) Validate(lib *Library) error {
	for _, g := range n.gates {
		spec, err := lib.Spec(g.Type)
		if err != nil {
			return fmt.Errorf("synth: %s: %w", n.Name, err)
		}
		if spec.Inputs > 0 && len(g.Inputs) != spec.Inputs {
			return fmt.Errorf("synth: %s: gate %q (%v) has %d inputs, cell takes %d",
				n.Name, g.Name, g.Type, len(g.Inputs), spec.Inputs)
		}
		for _, in := range g.Inputs {
			if in >= g.ID {
				return fmt.Errorf("synth: %s: gate %q reads forward reference %d", n.Name, g.Name, in)
			}
		}
	}
	return nil
}
