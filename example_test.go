package photonoc_test

import (
	"context"
	"fmt"

	"photonoc"
)

// Example reproduces the paper's headline in four lines: the laser power
// roughly halves when H(7,4) replaces uncoded transmission at BER 1e-11.
func Example() {
	cfg := photonoc.DefaultConfig()
	link, _ := cfg.Compile()
	uncoded, _ := link.Evaluate(photonoc.Uncoded64(), 1e-11)
	coded, _ := link.Evaluate(photonoc.Hamming74(), 1e-11)
	fmt.Printf("uncoded %.1f mW, H(7,4) %.1f mW, reduction %.0f%%\n",
		uncoded.LaserPowerW*1e3, coded.LaserPowerW*1e3,
		(1-coded.ChannelPowerW/uncoded.ChannelPowerW)*100)
	// Output:
	// uncoded 13.7 mW, H(7,4) 6.2 mW, reduction 50%
}

// ExampleLinkConfig_Compile shows the feasibility cliff: BER 1e-12 is
// unreachable without coding because of the 700 µW laser ceiling.
func ExampleLinkConfig_Compile() {
	cfg := photonoc.DefaultConfig()
	link, err := cfg.Compile()
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, code := range photonoc.PaperSchemes() {
		ev, err := link.Evaluate(code, 1e-12)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%-9s feasible=%v\n", ev.Code.Name(), ev.Feasible)
	}
	// Output:
	// w/o ECC   feasible=false
	// H(71,64)  feasible=true
	// H(7,4)    feasible=true
}

// ExampleEngine_Manager demonstrates the runtime manager choosing a scheme
// under a deadline constraint (CT capped below H(7,4)'s 1.75).
func ExampleEngine_Manager() {
	eng, _ := photonoc.New()
	mgr, _ := eng.Manager(photonoc.PaperDAC())
	d, _ := mgr.Configure(photonoc.Requirements{
		TargetBER: 1e-11,
		MaxCT:     1.2,
		Objective: photonoc.MinPower,
	})
	fmt.Printf("%s at CT %.3f\n", d.Eval.Code.Name(), d.Eval.CT)
	// Output:
	// H(71,64) at CT 1.109
}

// ExampleHeadlineWith prints the Section V-C summary numbers, solved
// through an Engine.
func ExampleHeadlineWith() {
	eng, _ := photonoc.New()
	cfg := eng.Config()
	h, _ := photonoc.HeadlineWith(context.Background(), eng, &cfg, 1e-11)
	fmt.Printf("laser share %.0f%%, best scheme %s, saving %.0f W\n",
		h.LaserShareUncoded*100, h.BestEnergyScheme, h.InterconnectSavingW)
	// Output:
	// laser share 91%, best scheme H(71,64), saving 21 W
}
