package synth

import (
	"fmt"

	"photonoc/internal/ecc"
)

// BuildXORTree reduces the given signals with a balanced tree of XOR2 cells
// and returns the root. A single signal is returned unchanged; an empty
// list panics (a parity over nothing is a construction bug).
func BuildXORTree(n *Netlist, ins []GateID, name string) GateID {
	switch len(ins) {
	case 0:
		panic(fmt.Sprintf("synth: empty XOR tree %q", name))
	case 1:
		return ins[0]
	}
	level := append([]GateID(nil), ins...)
	stage := 0
	for len(level) > 1 {
		var next []GateID
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, n.AddGate(CellXor2, fmt.Sprintf("%s_x%d_%d", name, stage, i/2), level[i], level[i+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
		stage++
	}
	return level[0]
}

// BuildANDTree reduces signals with a balanced tree of AND2 cells.
func BuildANDTree(n *Netlist, ins []GateID, name string) GateID {
	switch len(ins) {
	case 0:
		panic(fmt.Sprintf("synth: empty AND tree %q", name))
	case 1:
		return ins[0]
	}
	level := append([]GateID(nil), ins...)
	stage := 0
	for len(level) > 1 {
		var next []GateID
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, n.AddGate(CellAnd2, fmt.Sprintf("%s_a%d_%d", name, stage, i/2), level[i], level[i+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
		stage++
	}
	return level[0]
}

// BuildEncoder generates the gate netlist of a systematic linear-code
// encoder (Fig. 2c): one XOR tree per parity bit driven by the code's
// parity-check footprints, a per-block clock gate (the paper's path-enable)
// and registered outputs. Output names: "c0".."c<n-1>" are the registered
// codeword bits; "pre_c*" are their pre-register values for simulation.
func BuildEncoder(code *ecc.LinearCode) *Netlist {
	n := NewNetlist(fmt.Sprintf("enc_%s", code.Name()))
	k, r := code.K(), code.N()-code.K()

	enable := n.AddInput("en")
	n.AddGate(CellICG, "icg", enable)

	data := make([]GateID, k)
	for i := range data {
		data[i] = n.AddInput(fmt.Sprintf("d%d", i))
	}

	// Systematic bits pass through; parity bits come from XOR trees over
	// the mask footprints (identical to LinearCode.EncodeInto's hot loop).
	for i := 0; i < k; i++ {
		n.MarkOutput(data[i], fmt.Sprintf("pre_c%d", i))
		q := n.AddGate(CellDFF, fmt.Sprintf("c%d_reg", i), data[i])
		n.MarkOutput(q, fmt.Sprintf("c%d", i))
	}
	for j := 0; j < r; j++ {
		mask := code.ParityMask(j)
		var taps []GateID
		for i := 0; i < k; i++ {
			if mask[i>>6]>>(uint(i)&63)&1 == 1 {
				taps = append(taps, data[i])
			}
		}
		p := BuildXORTree(n, taps, fmt.Sprintf("p%d", j))
		n.MarkOutput(p, fmt.Sprintf("pre_c%d", k+j))
		q := n.AddGate(CellDFF, fmt.Sprintf("c%d_reg", k+j), p)
		n.MarkOutput(q, fmt.Sprintf("c%d", k+j))
	}
	return n
}

// BuildDecoder generates the decoder netlist (Fig. 2d): syndrome XOR trees
// (H·r), a predecoded syndrome-to-position demux, correction XORs on the
// data bits and registered outputs. Output names: "q0".."q<k-1>" registered
// data, "pre_q*" pre-register values, "pre_err" the error-detected flag
// (nonzero syndrome).
func BuildDecoder(code *ecc.LinearCode) *Netlist {
	n := NewNetlist(fmt.Sprintf("dec_%s", code.Name()))
	k, r := code.K(), code.N()-code.K()

	enable := n.AddInput("en")
	n.AddGate(CellICG, "icg", enable)

	word := make([]GateID, code.N())
	for i := range word {
		word[i] = n.AddInput(fmt.Sprintf("c%d", i))
	}

	// Syndrome bit j = parity of the data footprint XOR the received
	// parity bit j.
	syndrome := make([]GateID, r)
	for j := 0; j < r; j++ {
		mask := code.ParityMask(j)
		taps := []GateID{word[k+j]}
		for i := 0; i < k; i++ {
			if mask[i>>6]>>(uint(i)&63)&1 == 1 {
				taps = append(taps, word[i])
			}
		}
		syndrome[j] = BuildXORTree(n, taps, fmt.Sprintf("s%d", j))
	}
	n.MarkOutput(BuildORTree(n, syndrome, "err"), "pre_err")

	// Predecode: split the syndrome into groups of up to 3 bits and build
	// every minterm of each group once (shared decode, standard practice).
	inverted := make([]GateID, r)
	for j := 0; j < r; j++ {
		inverted[j] = n.AddGate(CellInv, fmt.Sprintf("s%d_n", j), syndrome[j])
	}
	var groups [][]GateID // groups[g][value] = minterm line
	for lo := 0; lo < r; lo += 3 {
		hi := lo + 3
		if hi > r {
			hi = r
		}
		bitsIn := hi - lo
		lines := make([]GateID, 1<<bitsIn)
		for v := 0; v < 1<<bitsIn; v++ {
			var taps []GateID
			for b := 0; b < bitsIn; b++ {
				if v>>b&1 == 1 {
					taps = append(taps, syndrome[lo+b])
				} else {
					taps = append(taps, inverted[lo+b])
				}
			}
			lines[v] = BuildANDTree(n, taps, fmt.Sprintf("pd%d_%d", lo/3, v))
		}
		groups = append(groups, lines)
	}
	// Position line for data bit i: AND of one minterm per group, selected
	// by the bit's syndrome pattern (its parity footprint).
	positionLine := func(pattern uint64) GateID {
		var taps []GateID
		for g, lines := range groups {
			shift := uint(3 * g)
			bitsIn := 3
			if rem := r - 3*g; rem < 3 {
				bitsIn = rem
			}
			val := pattern >> shift & (1<<uint(bitsIn) - 1)
			taps = append(taps, lines[val])
		}
		return BuildANDTree(n, taps, fmt.Sprintf("pos_%x", pattern))
	}

	for i := 0; i < k; i++ {
		var pattern uint64
		for j := 0; j < r; j++ {
			m := code.ParityMask(j)
			if m[i>>6]>>(uint(i)&63)&1 == 1 {
				pattern |= 1 << uint(j)
			}
		}
		line := positionLine(pattern)
		fixed := n.AddGate(CellXor2, fmt.Sprintf("fix%d", i), word[i], line)
		n.MarkOutput(fixed, fmt.Sprintf("pre_q%d", i))
		q := n.AddGate(CellDFF, fmt.Sprintf("q%d_reg", i), fixed)
		n.MarkOutput(q, fmt.Sprintf("q%d", i))
	}
	return n
}

// BuildORTree reduces signals with a balanced tree of OR2 cells.
func BuildORTree(n *Netlist, ins []GateID, name string) GateID {
	switch len(ins) {
	case 0:
		panic(fmt.Sprintf("synth: empty OR tree %q", name))
	case 1:
		return ins[0]
	}
	level := append([]GateID(nil), ins...)
	stage := 0
	for len(level) > 1 {
		var next []GateID
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, n.AddGate(CellOr2, fmt.Sprintf("%s_o%d_%d", name, stage, i/2), level[i], level[i+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
		stage++
	}
	return level[0]
}

// BuildSerializer generates the paper's register-pipeline serializer: width
// stages of load-mux + high-speed flip-flop. Inputs: "load", "d0".."d<w-1>";
// output "so" is the serial stream (stage w−1 shifts toward the output).
func BuildSerializer(width int) *Netlist {
	n := NewNetlist(fmt.Sprintf("ser%d", width))
	load := n.AddInput("load")
	data := make([]GateID, width)
	for i := range data {
		data[i] = n.AddInput(fmt.Sprintf("d%d", i))
	}
	zero := n.AddGate(CellBuf, "zero", load) // placeholder feed for stage 0 shift input
	prevQ := zero
	var lastQ GateID
	for i := 0; i < width; i++ {
		// Each stage loads d[i] when load=1, otherwise shifts from the
		// previous stage. Stage width−1 drives the serial output, so the
		// first bit out is d[width−1]'s … historical shift order: we
		// load so that d0 emerges first: stage i holds d[width-1-i].
		d := n.AddGate(CellMux2, fmt.Sprintf("st%d_mux", i), prevQ, data[width-1-i], load)
		q := n.AddGate(CellDFFHS, fmt.Sprintf("st%d", i), d)
		prevQ = q
		lastQ = q
	}
	n.MarkOutput(lastQ, "so")
	return n
}

// BuildDeserializer generates the register-pipeline deserializer: a width-
// deep shift register on the modulation clock. Input "si"; outputs
// "q0".."q<w-1>" hold the word after width shifts (q0 = first bit received).
func BuildDeserializer(width int) *Netlist {
	n := NewNetlist(fmt.Sprintf("des%d", width))
	si := n.AddInput("si")
	prev := si
	qs := make([]GateID, width)
	for i := 0; i < width; i++ {
		q := n.AddGate(CellDFFHS, fmt.Sprintf("st%d", i), prev)
		qs[i] = q
		prev = q
	}
	// After width clocks, the first-received bit has reached stage
	// width−1; map outputs so q0 is the first bit of the word.
	for i := 0; i < width; i++ {
		n.MarkOutput(qs[width-1-i], fmt.Sprintf("q%d", i))
	}
	return n
}

// BuildSerialMux generates the transmitter's 1-bit 3:1 path mux running at
// the modulation speed (Table I's "1-bit MUX (3 to 1)"): two MUX2 stages,
// input retiming and a registered, buffered output.
// Inputs: "a","b","c","s0","s1"; output "y" (= a when s1s0=00, b when 01,
// c when 1x).
func BuildSerialMux() *Netlist {
	n := NewNetlist("sermux3")
	a, b, c := n.AddInput("a"), n.AddInput("b"), n.AddInput("c")
	s0, s1 := n.AddInput("s0"), n.AddInput("s1")
	ra := n.AddGate(CellDFFHS, "ra", a)
	rb := n.AddGate(CellDFFHS, "rb", b)
	m0 := n.AddGate(CellMux2, "m0", ra, rb, s0)
	m1 := n.AddGate(CellMux2, "m1", m0, c, s1)
	q := n.AddGate(CellDFFHS, "yreg", m1)
	// Driver chain toward the modulator input (10 GHz line load).
	d0 := n.AddGate(CellBuf, "ydrv0", q)
	d1 := n.AddGate(CellBuf, "ydrv1", d0)
	n.MarkOutput(d1, "y")
	n.MarkOutput(m1, "pre_y")
	return n
}

// BuildWordMux generates the receiver's width-bit 3:1 mux selecting among
// the decoded paths at the IP clock (Table I's "64-bits MUX (3 to 1)"),
// with input pipeline registers and a registered output per bit.
// Inputs: "a<i>","b<i>","c<i>","s0","s1"; outputs "y<i>" / "pre_y<i>".
func BuildWordMux(width int) *Netlist {
	n := NewNetlist(fmt.Sprintf("wordmux%d_3to1", width))
	s0, s1 := n.AddInput("s0"), n.AddInput("s1")
	sb0 := n.AddGate(CellBuf, "s0buf", s0)
	sb1 := n.AddGate(CellBuf, "s1buf", s1)
	for i := 0; i < width; i++ {
		a := n.AddInput(fmt.Sprintf("a%d", i))
		b := n.AddInput(fmt.Sprintf("b%d", i))
		c := n.AddInput(fmt.Sprintf("c%d", i))
		// The staging registers of the two coded paths clock only when
		// their path is enabled: model them as gated flip-flops.
		ra := n.AddGate(CellDFFG, fmt.Sprintf("ra%d", i), a)
		rb := n.AddGate(CellDFFG, fmt.Sprintf("rb%d", i), b)
		m0 := n.AddGate(CellMux2, fmt.Sprintf("m0_%d", i), ra, rb, sb0)
		m1 := n.AddGate(CellMux2, fmt.Sprintf("m1_%d", i), m0, c, sb1)
		n.MarkOutput(m1, fmt.Sprintf("pre_y%d", i))
		q := n.AddGate(CellDFF, fmt.Sprintf("y%d", i), m1)
		n.MarkOutput(q, fmt.Sprintf("y%d", i))
	}
	return n
}
