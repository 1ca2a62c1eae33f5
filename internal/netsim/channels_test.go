package netsim

import "testing"

func TestPerChannelStatsConsistency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Messages = 3000
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerChannel) != 12 {
		t.Fatalf("per-channel entries = %d", len(res.PerChannel))
	}
	var msgs int64
	var active float64
	var busySum float64
	for i, ch := range res.PerChannel {
		if ch.Channel != i {
			t.Errorf("channel index %d at slot %d", ch.Channel, i)
		}
		msgs += ch.Messages
		active += ch.ActiveEnergyJ
		busySum += ch.BusyFraction
		if ch.BusyFraction < 0 || ch.BusyFraction > 1 {
			t.Errorf("channel %d busy fraction %g", i, ch.BusyFraction)
		}
	}
	if msgs != res.Messages {
		t.Errorf("per-channel messages %d != total %d", msgs, res.Messages)
	}
	wantActive := res.LaserEnergyJ + res.ModulatorEnergyJ + res.InterfaceEnergyJ
	if d := active - wantActive; d > 1e-12 || d < -1e-12 {
		t.Errorf("per-channel energy %g != active total %g", active, wantActive)
	}
	if d := busySum/12 - res.ChannelUtilization; d > 1e-9 || d < -1e-9 {
		t.Errorf("mean busy fraction %g != utilization %g", busySum/12, res.ChannelUtilization)
	}
}

func TestPerChannelHotspotConcentration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Messages = 4000
	cfg.Load = 0.2
	cfg.Pattern = Hotspot
	cfg.HotspotNode = 5
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hot := res.PerChannel[5]
	var others int64
	for i, ch := range res.PerChannel {
		if i != 5 {
			others += ch.Messages
		}
	}
	meanOther := float64(others) / 11
	// 30% of all traffic goes to the hot node: it should see >3x the mean.
	if float64(hot.Messages) < 3*meanOther {
		t.Errorf("hot channel got %d messages, mean other %g — concentration missing", hot.Messages, meanOther)
	}
	// And it burns proportionally more energy.
	var maxOtherE float64
	for i, ch := range res.PerChannel {
		if i != 5 && ch.ActiveEnergyJ > maxOtherE {
			maxOtherE = ch.ActiveEnergyJ
		}
	}
	if hot.ActiveEnergyJ <= maxOtherE {
		t.Error("hot channel should dominate active energy")
	}
}
