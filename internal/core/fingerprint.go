package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"

	"photonoc/internal/photonics"
)

// Fingerprint digests a configuration into the short hex key the caching
// layers use to tell configurations apart: equal configurations always
// agree and any parameter change produces a new digest. The engine's memo
// cache keys every solve by (fingerprint, scheme, target BER), and the
// network layer stamps each derived per-link configuration so links
// sharing a compiled plan share cache entries.
//
// The digest is a SHA-256 prefix over a canonical binary encoding: every
// field in declaration order, floats as their IEEE-754 bits and integers
// as 64-bit values, both little-endian, then the InterfacePowers entry
// count and the entries in sorted key order, each key length-prefixed. A
// field added to LinkConfig must be added here too; the core tests walk
// every leaf by reflection and fail otherwise.
func Fingerprint(cfg LinkConfig) string {
	var buf [512]byte
	b := buf[:0]
	ch := &cfg.Channel
	b = putInts(b, ch.Topo.ONIs, ch.Topo.Wavelengths, ch.Topo.WaveguidesPerChannel)
	b = putFloats(b, ch.Grid.CenterNM, ch.Grid.SpacingNM)
	b = putInts(b, ch.Grid.Count)
	b = putRing(b, ch.Modulator)
	b = putRing(b, ch.DropFilter)
	b = putFloats(b, ch.Waveguide.LengthCM, ch.Waveguide.LossDBPerCM)
	b = putInts(b, ch.Mux.Ports)
	b = putFloats(b, ch.Mux.InsertionLossDB, ch.CouplingLossDB,
		ch.Detector.ResponsivityAPerW, ch.Detector.DarkCurrentA,
		ch.Laser.Eta0, ch.Laser.RthKPerW, ch.Laser.DeltaTMax0K,
		ch.Laser.ActivityTempK, ch.Laser.Gamma, ch.Laser.RatedMaxOpticalW,
		ch.Activity, cfg.FmodHz, cfg.FIPHz)
	b = putInts(b, cfg.Ndata)
	b = putFloats(b, cfg.ModulatorPowerW)

	names := make([]string, 0, len(cfg.InterfacePowers))
	for name := range cfg.InterfacePowers {
		names = append(names, name)
	}
	slices.Sort(names)
	b = putInts(b, len(names))
	for _, name := range names {
		p := cfg.InterfacePowers[name]
		b = putInts(b, len(name))
		b = append(b, name...)
		b = putFloats(b, p.TransmitterW, p.ReceiverW)
	}

	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

func putRing(b []byte, r photonics.Ring) []byte {
	return putFloats(b, r.ResonanceNM, r.FWHMNM, r.ShiftNM, r.ThroughMin, r.DropMax)
}

func putFloats(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func putInts(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}
