// Package onocd is the production evaluation service over the photonoc
// Engine: an HTTP/JSON daemon (stdlib net/http only) serving sweep, decide,
// network-evaluate, network-simulate and Monte-Carlo-validate queries at
// high concurrency, with request coalescing and the memo cache underneath,
// per-request deadlines, semaphore admission control (429 + Retry-After),
// Prometheus-text metrics, hot config reload and graceful drain. cmd/onocd
// wraps it in a daemon; cmd/onocload drives it with a closed-loop load
// harness. onocnet, onocsim and onoctune describe each invocation as this
// package's requests and run them on a Backend (Open): Client against a
// daemon with -remote, otherwise an in-process engine through the same
// request conversions the /v1 handlers use.
package onocd

import (
	"fmt"
	"math"
	"strconv"

	"photonoc/internal/apierr"
	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/engine"
	"photonoc/internal/manager"
	"photonoc/internal/netsim"
	"photonoc/internal/noc"
	"photonoc/internal/onoc"
	"photonoc/internal/tune"
)

// WFloat is a float64 whose JSON form survives non-finite values: finite
// numbers marshal as plain JSON numbers, while ±Inf and NaN marshal as the
// strings "Inf", "-Inf" and "NaN" (encoding/json rejects them as numbers).
// Saturated operating points carry +Inf queue waits and latency
// percentiles, and the wire must not lose that.
type WFloat float64

// MarshalJSON implements json.Marshaler. Finite values reproduce
// encoding/json's own float notation byte for byte ('f' except for
// exponents beyond its ±range, with the two-digit exponent de-padded), so
// promoting a plain float64 field to WFloat never changes the wire bytes
// of finite values.
func (f WFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(nil, v, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *WFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"Inf"`, `"+Inf"`:
		*f = WFloat(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = WFloat(math.Inf(-1))
		return nil
	case `"NaN"`:
		*f = WFloat(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return fmt.Errorf("onocd: WFloat %q: %w", b, err)
	}
	*f = WFloat(v)
	return nil
}

// parseObjective maps the wire spelling to the manager objective through
// manager.ParseObjective; the empty string defaults to min-energy, matching
// the onocnet CLI default.
func parseObjective(s string) (manager.Objective, error) {
	if s == "" {
		return manager.MinEnergy, nil
	}
	obj, err := manager.ParseObjective(s)
	if err != nil {
		return 0, fmt.Errorf("%w: unknown objective %q (want min-power|min-energy|min-latency)", apierr.ErrInvalidInput, s)
	}
	return obj, nil
}

// ResolveSchemes maps wire scheme names onto codes from the extended
// registry; nil/empty means the engine roster (returned as nil).
func ResolveSchemes(names []string) ([]ecc.Code, error) {
	if len(names) == 0 {
		return nil, nil
	}
	codes := make([]ecc.Code, len(names))
	for i, n := range names {
		c, ok := ecc.SchemeByName(n)
		if !ok {
			return nil, fmt.Errorf("%w: unknown scheme %q", apierr.ErrInvalidInput, n)
		}
		codes[i] = c
	}
	return codes, nil
}

// SweepRequest is the body of POST /v1/sweep and /v1/sweep/stream.
type SweepRequest struct {
	// Schemes are display names from the extended registry (e.g. "H(7,4)");
	// empty means the daemon's roster.
	Schemes []string `json:"schemes,omitempty"`
	// TargetBERs is the post-decoding BER grid, each in (0, 0.5).
	TargetBERs []float64 `json:"target_bers"`
}

// DecideRequest is the body of POST /v1/decide: one runtime-manager
// configuration request.
type DecideRequest struct {
	TargetBER float64 `json:"target_ber"`
	// MaxCT caps the tolerable communication-time expansion (0 = none).
	MaxCT float64 `json:"max_ct,omitempty"`
	// Objective is min-power|min-energy|min-latency (default min-energy).
	Objective string `json:"objective,omitempty"`
}

// ValidateRequest is the body of POST /v1/validate: one Monte-Carlo
// validation run (see internal/mc for the determinism contract).
type ValidateRequest struct {
	Scheme       string  `json:"scheme"`
	RawBER       float64 `json:"raw_ber"`
	Frames       int64   `json:"frames"`
	TargetRelErr float64 `json:"target_rel_err,omitempty"`
	Shards       int     `json:"shards,omitempty"`
	Seed         int64   `json:"seed,omitempty"`
}

// NoCRequest is the body of POST /v1/noc/eval, /v1/noc/sweep and
// /v1/noc/sim. TargetBER drives eval and sim; TargetBERs drives the sweep;
// the Messages/Seed/MaxQueueDepth tail applies to sim only.
type NoCRequest struct {
	Topology    string  `json:"topology"` // bus|crossbar|ring|mesh
	Tiles       int     `json:"tiles"`
	Columns     int     `json:"columns,omitempty"`
	TilePitchCM float64 `json:"tile_pitch_cm,omitempty"`

	TargetBER  float64   `json:"target_ber,omitempty"`
	TargetBERs []float64 `json:"target_bers,omitempty"`
	Objective  string    `json:"objective,omitempty"`
	// Traffic is a row-normalized (src, dst) matrix; empty means uniform.
	Traffic        [][]float64 `json:"traffic,omitempty"`
	RateBitsPerSec float64     `json:"rate_bits_per_sec,omitempty"`
	MessageBits    int         `json:"message_bits,omitempty"`
	// UseDAC quantizes laser settings through the paper's 6-bit DAC.
	UseDAC bool `json:"use_dac,omitempty"`

	Messages      int   `json:"messages,omitempty"`
	Seed          int64 `json:"seed,omitempty"`
	MaxQueueDepth int   `json:"max_queue_depth,omitempty"`
}

// NoCBatchItem is one NDJSON input line of POST /v1/noc/batch: one
// design-space candidate. It carries the NoCRequest topology and
// evaluation fields (TargetBER, not TargetBERs — each candidate is one
// operating point) plus an optional roster restriction by scheme name.
type NoCBatchItem struct {
	NoCRequest
	// Schemes restricts this candidate to a subset of the registry; empty
	// means the daemon's roster.
	Schemes []string `json:"schemes,omitempty"`
}

// candidate converts one batch line into an engine candidate.
func (it *NoCBatchItem) candidate() (engine.NetworkCandidate, error) {
	if len(it.TargetBERs) != 0 {
		return engine.NetworkCandidate{}, fmt.Errorf("%w: batch candidates take target_ber, not target_bers", apierr.ErrInvalidInput)
	}
	cfg, opts, err := it.network()
	if err != nil {
		return engine.NetworkCandidate{}, err
	}
	codes, err := ResolveSchemes(it.Schemes)
	if err != nil {
		return engine.NetworkCandidate{}, err
	}
	return engine.NetworkCandidate{Topology: cfg, Schemes: codes, Opts: opts}, nil
}

// network converts the wire request into a topology (Base left zero, so
// the engine's configuration is adopted) and evaluation options. The tile
// count is checked here, so the streaming routes refuse it with a status
// code rather than a stream item.
func (r *NoCRequest) network() (noc.Config, noc.EvalOptions, error) {
	kind, err := noc.ParseKind(r.Topology)
	if err != nil {
		return noc.Config{}, noc.EvalOptions{}, fmt.Errorf("%w: %v", apierr.ErrInvalidInput, err)
	}
	if err := noc.ValidateTiles(r.Tiles); err != nil {
		return noc.Config{}, noc.EvalOptions{}, fmt.Errorf("%w: %v", apierr.ErrInvalidConfig, err)
	}
	obj, err := parseObjective(r.Objective)
	if err != nil {
		return noc.Config{}, noc.EvalOptions{}, err
	}
	opts := noc.EvalOptions{
		TargetBER:               r.TargetBER,
		Objective:               obj,
		Traffic:                 noc.Matrix(r.Traffic),
		InjectionRateBitsPerSec: r.RateBitsPerSec,
		MessageBits:             r.MessageBits,
	}
	if len(r.Traffic) == 0 {
		opts.Traffic = nil
	}
	if r.UseDAC {
		dac := manager.PaperDAC()
		opts.DAC = &dac
	}
	return noc.Config{Kind: kind, Tiles: r.Tiles, Columns: r.Columns, TilePitchCM: r.TilePitchCM}, opts, nil
}

// Evaluation is one solved (scheme, target BER) operating point on the
// wire: core.Evaluation with the scheme flattened to its registry name (an
// ecc.Code cannot round-trip JSON).
type Evaluation struct {
	Scheme           string              `json:"scheme"`
	TargetBER        float64             `json:"target_ber"`
	RawBER           float64             `json:"raw_ber"`
	SNR              float64             `json:"snr"`
	CT               float64             `json:"ct"`
	Op               onoc.OperatingPoint `json:"op"`
	LaserPowerW      float64             `json:"laser_power_w"`
	ModulatorPowerW  float64             `json:"modulator_power_w"`
	InterfacePowerW  float64             `json:"interface_power_w"`
	ChannelPowerW    float64             `json:"channel_power_w"`
	EnergyPerBitJ    float64             `json:"energy_per_bit_j"`
	Feasible         bool                `json:"feasible"`
	InfeasibleReason string              `json:"infeasible_reason,omitempty"`
}

// toWireEval flattens a solved evaluation for the wire.
func toWireEval(ev core.Evaluation) Evaluation {
	return Evaluation{
		Scheme:           ev.Code.Name(),
		TargetBER:        ev.TargetBER,
		RawBER:           ev.RawBER,
		SNR:              ev.SNR,
		CT:               ev.CT,
		Op:               ev.Op,
		LaserPowerW:      ev.LaserPowerW,
		ModulatorPowerW:  ev.ModulatorPowerW,
		InterfacePowerW:  ev.InterfacePowerW,
		ChannelPowerW:    ev.ChannelPowerW,
		EnergyPerBitJ:    ev.EnergyPerBitJ,
		Feasible:         ev.Feasible,
		InfeasibleReason: ev.InfeasibleReason,
	}
}

// Core rebuilds the in-process evaluation, resolving the scheme name
// against the extended registry.
func (w Evaluation) Core() (core.Evaluation, error) {
	code, ok := ecc.SchemeByName(w.Scheme)
	if !ok {
		return core.Evaluation{}, fmt.Errorf("%w: remote evaluation names unknown scheme %q", apierr.ErrInvalidInput, w.Scheme)
	}
	return core.Evaluation{
		Code:             code,
		TargetBER:        w.TargetBER,
		RawBER:           w.RawBER,
		SNR:              w.SNR,
		CT:               w.CT,
		Op:               w.Op,
		LaserPowerW:      w.LaserPowerW,
		ModulatorPowerW:  w.ModulatorPowerW,
		InterfacePowerW:  w.InterfacePowerW,
		ChannelPowerW:    w.ChannelPowerW,
		EnergyPerBitJ:    w.EnergyPerBitJ,
		Feasible:         w.Feasible,
		InfeasibleReason: w.InfeasibleReason,
	}, nil
}

// SweepResponse is the body of a batch sweep: evaluations in the engine's
// deterministic BER-major, then scheme order.
type SweepResponse struct {
	Evaluations []Evaluation `json:"evaluations"`
}

// wireStreamItem is the contract shared by the resumable NDJSON stream
// line types, and the one rule the server's stream pipeline and the
// client's resume loop both apply: an index cursor into the full
// (unresumed) stream plus a way to recognize the line that ends it.
type wireStreamItem interface {
	itemIndex() int
	// terminal reports the error body that ends the stream, nil otherwise.
	terminal() *apierr.ErrorBody
}

// StreamItem is one NDJSON line of /v1/sweep/stream: either an indexed
// evaluation or a terminal error.
type StreamItem struct {
	Index      int               `json:"index"`
	Evaluation *Evaluation       `json:"evaluation,omitempty"`
	Error      *apierr.ErrorBody `json:"error,omitempty"`
}

func (i StreamItem) itemIndex() int { return i.Index }

// terminal implements wireStreamItem: every sweep error line is terminal.
func (i StreamItem) terminal() *apierr.ErrorBody { return i.Error }

// DecideResponse is the body of /v1/decide: the manager's scheme choice
// and quantized laser programming.
type DecideResponse struct {
	Eval                 Evaluation `json:"eval"`
	DACCode              int        `json:"dac_code"`
	QuantizedOpticalW    float64    `json:"quantized_optical_w"`
	QuantizedLaserPowerW float64    `json:"quantized_laser_power_w"`
	QuantizationWasteW   float64    `json:"quantization_waste_w"`
}

// NoCLinkDecision is one link's chosen operating point on the wire.
type NoCLinkDecision struct {
	Link             int     `json:"link"`
	Scheme           string  `json:"scheme,omitempty"`
	CT               float64 `json:"ct,omitempty"`
	LaserPowerW      float64 `json:"laser_power_w"`
	DACCode          int     `json:"dac_code"`
	EnergyPerBitJ    float64 `json:"energy_per_bit_j"`
	Feasible         bool    `json:"feasible"`
	InfeasibleReason string  `json:"infeasible_reason,omitempty"`
}

// NoCLinkLoad is one link's traffic view on the wire.
type NoCLinkLoad struct {
	Link               int     `json:"link"`
	CapacityBitsPerSec float64 `json:"capacity_bits_per_sec"`
	OfferedBitsPerSec  float64 `json:"offered_bits_per_sec"`
	Utilization        float64 `json:"utilization"`
	QueueWaitSec       WFloat  `json:"queue_wait_sec"`
}

// NoCResult is one solved network operating point on the wire.
type NoCResult struct {
	Kind             string  `json:"kind"`
	Tiles            int     `json:"tiles"`
	Links            int     `json:"links"`
	TargetBER        float64 `json:"target_ber"`
	Feasible         bool    `json:"feasible"`
	InfeasibleReason string  `json:"infeasible_reason,omitempty"`

	SchemeUse map[string]int    `json:"scheme_use,omitempty"`
	Decisions []NoCLinkDecision `json:"decisions,omitempty"`
	Loads     []NoCLinkLoad     `json:"loads,omitempty"`

	// The rate figures ride WFloat like the latency percentiles: a
	// degenerate candidate evaluated by an old daemon (or a result relayed
	// through logs) can carry ±Inf, and the wire must not lose it.
	SaturationInjectionBitsPerSec WFloat `json:"saturation_injection_bits_per_sec"`
	InjectionRateBitsPerSec       WFloat `json:"injection_rate_bits_per_sec"`
	Saturated                     bool   `json:"saturated"`
	DeliveredBitsPerSec           WFloat `json:"delivered_bits_per_sec"`

	LaserPowerW         float64 `json:"laser_power_w"`
	ModulatorPowerW     float64 `json:"modulator_power_w"`
	InterfacePowerW     float64 `json:"interface_power_w"`
	NetworkPowerW       float64 `json:"network_power_w"`
	EnergyPerBitJ       float64 `json:"energy_per_bit_j"`
	ActiveEnergyPerBitJ float64 `json:"active_energy_per_bit_j"`

	MeanLatencySec WFloat `json:"mean_latency_sec"`
	P50LatencySec  WFloat `json:"p50_latency_sec"`
	P95LatencySec  WFloat `json:"p95_latency_sec"`
	P99LatencySec  WFloat `json:"p99_latency_sec"`
	MaxLatencySec  WFloat `json:"max_latency_sec"`
}

// toWireDecision flattens one link decision.
func toWireDecision(d noc.LinkDecision) NoCLinkDecision {
	w := NoCLinkDecision{
		Link:             d.Link,
		LaserPowerW:      d.LaserPowerW,
		DACCode:          d.DACCode,
		EnergyPerBitJ:    d.EnergyPerBitJ,
		Feasible:         d.Feasible,
		InfeasibleReason: d.InfeasibleReason,
	}
	if d.Eval.Code != nil {
		w.Scheme = d.Eval.Code.Name()
		w.CT = d.Eval.CT
	}
	return w
}

// coreDecision rebuilds an in-process link decision; infeasible links have
// no scheme and keep a zero Eval, matching noc.EvalSession.Decide.
func (w NoCLinkDecision) coreDecision() (noc.LinkDecision, error) {
	d := noc.LinkDecision{
		Link:             w.Link,
		LaserPowerW:      w.LaserPowerW,
		DACCode:          w.DACCode,
		EnergyPerBitJ:    w.EnergyPerBitJ,
		Feasible:         w.Feasible,
		InfeasibleReason: w.InfeasibleReason,
	}
	if w.Scheme != "" {
		code, ok := ecc.SchemeByName(w.Scheme)
		if !ok {
			return d, fmt.Errorf("%w: remote decision names unknown scheme %q", apierr.ErrInvalidInput, w.Scheme)
		}
		d.Eval.Code = code
		d.Eval.CT = w.CT
		d.Eval.Feasible = w.Feasible
	}
	return d, nil
}

// toWireNoC flattens a solved network result.
func toWireNoC(res noc.Result) NoCResult {
	w := NoCResult{
		Kind:             res.Kind.String(),
		Tiles:            res.Tiles,
		Links:            res.Links,
		TargetBER:        res.TargetBER,
		Feasible:         res.Feasible,
		InfeasibleReason: res.InfeasibleReason,
		SchemeUse:        res.SchemeUse,

		SaturationInjectionBitsPerSec: WFloat(res.SaturationInjectionBitsPerSec),
		InjectionRateBitsPerSec:       WFloat(res.InjectionRateBitsPerSec),
		Saturated:                     res.Saturated,
		DeliveredBitsPerSec:           WFloat(res.DeliveredBitsPerSec),

		LaserPowerW:         res.LaserPowerW,
		ModulatorPowerW:     res.ModulatorPowerW,
		InterfacePowerW:     res.InterfacePowerW,
		NetworkPowerW:       res.NetworkPowerW,
		EnergyPerBitJ:       res.EnergyPerBitJ,
		ActiveEnergyPerBitJ: res.ActiveEnergyPerBitJ,

		MeanLatencySec: WFloat(res.MeanLatencySec),
		P50LatencySec:  WFloat(res.P50LatencySec),
		P95LatencySec:  WFloat(res.P95LatencySec),
		P99LatencySec:  WFloat(res.P99LatencySec),
		MaxLatencySec:  WFloat(res.MaxLatencySec),
	}
	for _, d := range res.Decisions {
		w.Decisions = append(w.Decisions, toWireDecision(d))
	}
	for _, l := range res.Loads {
		w.Loads = append(w.Loads, NoCLinkLoad{
			Link:               l.Link,
			CapacityBitsPerSec: l.CapacityBitsPerSec,
			OfferedBitsPerSec:  l.OfferedBitsPerSec,
			Utilization:        l.Utilization,
			QueueWaitSec:       WFloat(l.QueueWaitSec),
		})
	}
	return w
}

// Core rebuilds an in-process noc.Result (scheme names resolved against the
// registry) so remote results render through the exact same table code as
// local ones.
func (w NoCResult) Core() (noc.Result, error) {
	kind, err := noc.ParseKind(w.Kind)
	if err != nil {
		return noc.Result{}, fmt.Errorf("%w: %v", apierr.ErrInvalidInput, err)
	}
	res := noc.Result{
		Kind:             kind,
		Tiles:            w.Tiles,
		Links:            w.Links,
		TargetBER:        w.TargetBER,
		Feasible:         w.Feasible,
		InfeasibleReason: w.InfeasibleReason,
		SchemeUse:        w.SchemeUse,

		SaturationInjectionBitsPerSec: float64(w.SaturationInjectionBitsPerSec),
		InjectionRateBitsPerSec:       float64(w.InjectionRateBitsPerSec),
		Saturated:                     w.Saturated,
		DeliveredBitsPerSec:           float64(w.DeliveredBitsPerSec),

		LaserPowerW:         w.LaserPowerW,
		ModulatorPowerW:     w.ModulatorPowerW,
		InterfacePowerW:     w.InterfacePowerW,
		NetworkPowerW:       w.NetworkPowerW,
		EnergyPerBitJ:       w.EnergyPerBitJ,
		ActiveEnergyPerBitJ: w.ActiveEnergyPerBitJ,

		MeanLatencySec: float64(w.MeanLatencySec),
		P50LatencySec:  float64(w.P50LatencySec),
		P95LatencySec:  float64(w.P95LatencySec),
		P99LatencySec:  float64(w.P99LatencySec),
		MaxLatencySec:  float64(w.MaxLatencySec),
	}
	for _, d := range w.Decisions {
		cd, err := d.coreDecision()
		if err != nil {
			return noc.Result{}, err
		}
		res.Decisions = append(res.Decisions, cd)
	}
	for _, l := range w.Loads {
		res.Loads = append(res.Loads, noc.LinkLoad{
			Link:               l.Link,
			CapacityBitsPerSec: l.CapacityBitsPerSec,
			OfferedBitsPerSec:  l.OfferedBitsPerSec,
			Utilization:        l.Utilization,
			QueueWaitSec:       float64(l.QueueWaitSec),
		})
	}
	return res, nil
}

// NoCStreamItem is one NDJSON line of /v1/noc/sweep and /v1/noc/batch:
// either a per-index result or an error. Index stamps the item's position
// in the full (unresumed) stream, so a client reconnecting with
// ?start_index=N can verify it is receiving exactly the suffix it asked
// for. An Error with Partial unset is terminal — the stream is over; with
// Partial set (batch continue_on_error mode) it is one candidate's failure
// record and the stream continues.
type NoCStreamItem struct {
	Index     int               `json:"index"`
	TargetBER float64           `json:"target_ber"`
	Result    *NoCResult        `json:"result,omitempty"`
	Error     *apierr.ErrorBody `json:"error,omitempty"`
	Partial   bool              `json:"partial,omitempty"`
}

func (i NoCStreamItem) itemIndex() int { return i.Index }

// terminal implements wireStreamItem: a Partial error is one candidate's
// failure record, not the end of the stream.
func (i NoCStreamItem) terminal() *apierr.ErrorBody {
	if i.Error != nil && !i.Partial {
		return i.Error
	}
	return nil
}

// NoCSimResult is a network discrete-event simulation on the wire.
type NoCSimResult struct {
	Injected      int64 `json:"injected"`
	Messages      int64 `json:"messages"`
	Dropped       int64 `json:"dropped"`
	DeliveredBits int64 `json:"delivered_bits"`

	SimTimeSec           float64 `json:"sim_time_sec"`
	MeanLatencySec       float64 `json:"mean_latency_sec"`
	P50LatencySec        float64 `json:"p50_latency_sec"`
	P95LatencySec        float64 `json:"p95_latency_sec"`
	P99LatencySec        float64 `json:"p99_latency_sec"`
	MaxLatencySec        float64 `json:"max_latency_sec"`
	MeanQueueWaitSec     float64 `json:"mean_queue_wait_sec"`
	MeanHops             float64 `json:"mean_hops"`
	LaserEnergyJ         float64 `json:"laser_energy_j"`
	ModulatorEnergyJ     float64 `json:"modulator_energy_j"`
	InterfaceEnergyJ     float64 `json:"interface_energy_j"`
	TotalEnergyJ         float64 `json:"total_energy_j"`
	EnergyPerBitJ        float64 `json:"energy_per_bit_j"`
	ThroughputBitsPerSec float64 `json:"throughput_bits_per_sec"`
	MeanUtilization      float64 `json:"mean_utilization"`
	MaxUtilization       float64 `json:"max_utilization"`

	SchemeUse map[string]int        `json:"scheme_use,omitempty"`
	Decisions []NoCLinkDecision     `json:"decisions,omitempty"`
	PerLink   []netsim.NetLinkStats `json:"per_link,omitempty"`
}

// toWireSim flattens a network simulation.
func toWireSim(res netsim.NetResults) NoCSimResult {
	w := NoCSimResult{
		Injected:      res.Injected,
		Messages:      res.Messages,
		Dropped:       res.Dropped,
		DeliveredBits: res.DeliveredBits,

		SimTimeSec:           res.SimTimeSec,
		MeanLatencySec:       res.MeanLatencySec,
		P50LatencySec:        res.P50LatencySec,
		P95LatencySec:        res.P95LatencySec,
		P99LatencySec:        res.P99LatencySec,
		MaxLatencySec:        res.MaxLatencySec,
		MeanQueueWaitSec:     res.MeanQueueWaitSec,
		MeanHops:             res.MeanHops,
		LaserEnergyJ:         res.LaserEnergyJ,
		ModulatorEnergyJ:     res.ModulatorEnergyJ,
		InterfaceEnergyJ:     res.InterfaceEnergyJ,
		TotalEnergyJ:         res.TotalEnergyJ,
		EnergyPerBitJ:        res.EnergyPerBitJ,
		ThroughputBitsPerSec: res.ThroughputBitsPerSec,
		MeanUtilization:      res.MeanUtilization,
		MaxUtilization:       res.MaxUtilization,

		SchemeUse: res.SchemeUse,
		PerLink:   res.PerLink,
	}
	for _, d := range res.Decisions {
		w.Decisions = append(w.Decisions, toWireDecision(d))
	}
	return w
}

// Core rebuilds in-process simulation results for local rendering.
func (w NoCSimResult) Core() (netsim.NetResults, error) {
	res := netsim.NetResults{
		Injected:      w.Injected,
		Messages:      w.Messages,
		Dropped:       w.Dropped,
		DeliveredBits: w.DeliveredBits,

		SimTimeSec:           w.SimTimeSec,
		MeanLatencySec:       w.MeanLatencySec,
		P50LatencySec:        w.P50LatencySec,
		P95LatencySec:        w.P95LatencySec,
		P99LatencySec:        w.P99LatencySec,
		MaxLatencySec:        w.MaxLatencySec,
		MeanQueueWaitSec:     w.MeanQueueWaitSec,
		MeanHops:             w.MeanHops,
		LaserEnergyJ:         w.LaserEnergyJ,
		ModulatorEnergyJ:     w.ModulatorEnergyJ,
		InterfaceEnergyJ:     w.InterfaceEnergyJ,
		TotalEnergyJ:         w.TotalEnergyJ,
		EnergyPerBitJ:        w.EnergyPerBitJ,
		ThroughputBitsPerSec: w.ThroughputBitsPerSec,
		MeanUtilization:      w.MeanUtilization,
		MaxUtilization:       w.MaxUtilization,

		SchemeUse: w.SchemeUse,
		PerLink:   w.PerLink,
	}
	for _, d := range w.Decisions {
		cd, err := d.coreDecision()
		if err != nil {
			return netsim.NetResults{}, err
		}
		res.Decisions = append(res.Decisions, cd)
	}
	return res, nil
}

// ConfigResponse is the body of GET /v1/config: the daemon engine's link
// configuration (LinkConfig round-trips JSON losslessly — the SaveConfig
// contract), its cache fingerprint and the scheme roster.
type ConfigResponse struct {
	Fingerprint string          `json:"fingerprint"`
	Schemes     []string        `json:"schemes"`
	Workers     int             `json:"workers"`
	Config      core.LinkConfig `json:"config"`
}

// NoCTuneRequest is the body of POST /v1/noc/tune: one autotuner campaign
// over the joint NoC design space. Only TargetBER is required; every other
// field zero-defaults exactly like tune.Options (16 particles, 20
// generations, bus/ring/mesh kinds, the daemon's roster plus one
// single-scheme roster per code, DAC bits {0, 4, 6, 8}).
type NoCTuneRequest struct {
	TargetBER       float64 `json:"target_ber"`
	Objective       string  `json:"objective,omitempty"`
	Pattern         string  `json:"pattern,omitempty"` // uniform|hotspot|permutation|streaming
	HotspotNode     int     `json:"hotspot_node,omitempty"`
	HotspotFraction float64 `json:"hotspot_fraction,omitempty"`
	MessageBits     int     `json:"message_bits,omitempty"`

	Seed        int64 `json:"seed,omitempty"`
	Particles   int   `json:"particles,omitempty"`
	Generations int   `json:"generations,omitempty"`
	ArchiveCap  int   `json:"archive_cap,omitempty"`

	// The design-space choice lists. Kinds are topology names; Rosters are
	// scheme-name subsets resolved against the extended registry.
	Kinds       []string   `json:"kinds,omitempty"`
	Tiles       []int      `json:"tiles,omitempty"`
	Wavelengths []int      `json:"wavelengths,omitempty"`
	Rosters     [][]string `json:"rosters,omitempty"`
	DACBits     []int      `json:"dac_bits,omitempty"`
}

// options converts the wire campaign into tune options; list defaults stay
// nil so tune.Run applies its own.
func (r *NoCTuneRequest) options() (tune.Options, error) {
	obj, err := parseObjective(r.Objective)
	if err != nil {
		return tune.Options{}, err
	}
	pat := netsim.Uniform
	if r.Pattern != "" {
		if pat, err = netsim.ParsePattern(r.Pattern); err != nil {
			return tune.Options{}, fmt.Errorf("%w: %v", apierr.ErrInvalidInput, err)
		}
	}
	opts := tune.Options{
		Seed:            r.Seed,
		Particles:       r.Particles,
		Generations:     r.Generations,
		ArchiveCap:      r.ArchiveCap,
		TargetBER:       r.TargetBER,
		Objective:       obj,
		Pattern:         pat,
		HotspotNode:     r.HotspotNode,
		HotspotFraction: r.HotspotFraction,
		MessageBits:     r.MessageBits,
		Tiles:           r.Tiles,
		Wavelengths:     r.Wavelengths,
		DACBits:         r.DACBits,
	}
	for _, k := range r.Kinds {
		kind, err := noc.ParseKind(k)
		if err != nil {
			return tune.Options{}, fmt.Errorf("%w: %v", apierr.ErrInvalidInput, err)
		}
		opts.Kinds = append(opts.Kinds, kind)
	}
	for i, names := range r.Rosters {
		codes, err := ResolveSchemes(names)
		if err != nil {
			return tune.Options{}, err
		}
		if len(codes) == 0 {
			return tune.Options{}, fmt.Errorf("%w: roster choice %d is empty", apierr.ErrInvalidInput, i)
		}
		opts.Rosters = append(opts.Rosters, codes)
	}
	return opts, nil
}

// NoCTunePoint is one archived design point on the wire: the decoded spec
// (scheme roster by name), the encoded particle position, and the three
// objectives. The objectives ride WFloat like the NoCResult figures.
type NoCTunePoint struct {
	Topology    string    `json:"topology"`
	Tiles       int       `json:"tiles"`
	Columns     int       `json:"columns"`
	Wavelengths int       `json:"wavelengths,omitempty"` // 0 = the daemon's grid
	Roster      []string  `json:"roster"`
	DACBits     int       `json:"dac_bits,omitempty"` // 0 = exact analytic settings
	Position    []float64 `json:"position"`

	EnergyPerBitJ        WFloat `json:"energy_per_bit_j"`
	P99LatencySec        WFloat `json:"p99_latency_sec"`
	SaturationBitsPerSec WFloat `json:"saturation_bits_per_sec"`
}

// toWireTunePoint flattens one archived point.
func toWireTunePoint(p tune.Point) NoCTunePoint {
	return NoCTunePoint{
		Topology:             p.Spec.Kind.String(),
		Tiles:                p.Spec.Tiles,
		Columns:              p.Spec.Columns,
		Wavelengths:          p.Spec.Wavelengths,
		Roster:               p.Spec.Roster,
		DACBits:              p.Spec.DACBits,
		Position:             p.Position,
		EnergyPerBitJ:        WFloat(p.EnergyPerBitJ),
		P99LatencySec:        WFloat(p.P99LatencySec),
		SaturationBitsPerSec: WFloat(p.SaturationBitsPerSec),
	}
}

// toWireTuneFront flattens a whole front.
func toWireTuneFront(front []tune.Point) []NoCTunePoint {
	out := make([]NoCTunePoint, len(front))
	for i, p := range front {
		out[i] = toWireTunePoint(p)
	}
	return out
}

// Core rebuilds the in-process point (topology name parsed back to its
// kind), so remote fronts render through the same code as local ones.
func (w NoCTunePoint) Core() (tune.Point, error) {
	kind, err := noc.ParseKind(w.Topology)
	if err != nil {
		return tune.Point{}, fmt.Errorf("%w: %v", apierr.ErrInvalidInput, err)
	}
	return tune.Point{
		Spec: tune.CandidateSpec{
			Kind:        kind,
			Tiles:       w.Tiles,
			Columns:     w.Columns,
			Wavelengths: w.Wavelengths,
			Roster:      w.Roster,
			DACBits:     w.DACBits,
		},
		Position:             w.Position,
		EnergyPerBitJ:        float64(w.EnergyPerBitJ),
		P99LatencySec:        float64(w.P99LatencySec),
		SaturationBitsPerSec: float64(w.SaturationBitsPerSec),
	}, nil
}

// coreTuneFront rebuilds a whole front.
func coreTuneFront(front []NoCTunePoint) ([]tune.Point, error) {
	out := make([]tune.Point, len(front))
	for i, w := range front {
		p, err := w.Core()
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// NoCTuneSummary is the terminal line of a finished campaign: the final
// front plus evaluation accounting, mirroring tune.Result.
type NoCTuneSummary struct {
	Generations int            `json:"generations"`
	Particles   int            `json:"particles"`
	Evaluated   int            `json:"evaluated"`
	Infeasible  int            `json:"infeasible"`
	Front       []NoCTunePoint `json:"front"`
}

// NoCTuneItem is one NDJSON line of POST /v1/noc/tune. Index counts
// generations: items 0 .. generations−1 carry that generation's archive
// front, and the final item at Index = generations carries the Summary.
// An Error item is always terminal — infeasible candidates are accounted
// inside the campaign, never streamed as failures.
type NoCTuneItem struct {
	Index   int               `json:"index"`
	Front   []NoCTunePoint    `json:"front,omitempty"`
	Summary *NoCTuneSummary   `json:"summary,omitempty"`
	Error   *apierr.ErrorBody `json:"error,omitempty"`
}

func (i NoCTuneItem) itemIndex() int { return i.Index }

// terminal implements wireStreamItem: every tune error line is terminal.
func (i NoCTuneItem) terminal() *apierr.ErrorBody { return i.Error }

// TuneSummary flattens a finished campaign — the daemon's terminal stream
// line and the onoctune -json document share this exact shape, so a remote
// campaign's JSON is byte-identical to a local one's.
func TuneSummary(res *tune.Result) NoCTuneSummary {
	return NoCTuneSummary{
		Generations: res.Generations,
		Particles:   res.Particles,
		Evaluated:   res.Evaluated,
		Infeasible:  res.Infeasible,
		Front:       toWireTuneFront(res.Front),
	}
}
