package onocd

import (
	"context"
	"fmt"
	"iter"

	"photonoc/internal/core"
	"photonoc/internal/ecc"
	"photonoc/internal/engine"
	"photonoc/internal/netsim"
	"photonoc/internal/noc"
	"photonoc/internal/tune"
)

// Backend runs the daemon's requests. *Client runs them on a daemon over
// HTTP; the in-process backend Open returns without a base URL runs them on
// a local engine through the same conversions the /v1 handlers use. A CLI
// describes each invocation as requests once and runs them on either. Open
// returns the backend's configuration, so Backend leaves Config out.
type Backend interface {
	core.Evaluator
	NetworkEval(ctx context.Context, req NoCRequest) (noc.Result, error)
	NetworkSweep(ctx context.Context, req NoCRequest, fn func(int, float64, noc.Result) error) error
	NetworkSim(ctx context.Context, req NoCRequest) (netsim.NetResults, error)
	Tune(ctx context.Context, req NoCTuneRequest, fn func(gen int, front []tune.Point) error) (*tune.Result, error)
}

// Open picks the backend of one CLI invocation: a Client of the daemon at
// the base URL remote, or, with remote empty, an in-process backend on a
// fresh engine built from opts (a remote run ignores them). It returns the
// backend's configuration and the banner a remote run prints ahead of its
// output ("" in process).
func Open(ctx context.Context, remote string, opts ...engine.Option) (Backend, ConfigResponse, string, error) {
	if remote == "" {
		eng, err := engine.New(opts...)
		if err != nil {
			return nil, ConfigResponse{}, "", err
		}
		return local{eng}, configOf(eng), "", nil
	}
	c := NewClient(remote)
	conf, err := c.Config(ctx)
	if err != nil {
		return nil, ConfigResponse{}, "", fmt.Errorf("remote %s: %w", remote, err)
	}
	fp := conf.Fingerprint[:min(12, len(conf.Fingerprint))] // a short one comes from outside: never index past it
	return c, conf, fmt.Sprintf("remote engine %s at %s\n", fp, c.Base), nil
}

// local runs requests on one engine. It is the in-process Backend, and
// every engine generation of the Server embeds one, so each /v1 network
// route and the in-process backend convert a request in the same place.
type local struct {
	eng *engine.Engine
}

// configOf describes an engine as GET /v1/config does.
func configOf(eng *engine.Engine) ConfigResponse {
	return ConfigResponse{
		Fingerprint: eng.ConfigFingerprint(),
		Schemes:     schemeNames(eng.Schemes()),
		Workers:     eng.Workers(),
		Config:      eng.Config(),
	}
}

func (l local) Evaluate(ctx context.Context, code ecc.Code, targetBER float64) (core.Evaluation, error) {
	return l.eng.Evaluate(ctx, code, targetBER)
}

func (l local) NetworkEval(ctx context.Context, req NoCRequest) (noc.Result, error) {
	cfg, opts, err := req.network()
	if err != nil {
		return noc.Result{}, err
	}
	return l.eng.Network(ctx, cfg, opts)
}

// networkSweep converts a sweep request and returns the engine's lazy
// stream over its BERs: a refused request returns before any solve.
func (l local) networkSweep(ctx context.Context, req *NoCRequest) (iter.Seq2[noc.Result, error], error) {
	cfg, opts, err := req.network()
	if err != nil {
		return nil, err
	}
	return l.eng.NetworkSweepStream(ctx, cfg, req.TargetBERs, opts), nil
}

func (l local) NetworkSweep(ctx context.Context, req NoCRequest, fn func(int, float64, noc.Result) error) error {
	results, err := l.networkSweep(ctx, &req)
	if err != nil {
		return err
	}
	i := 0
	for res, err := range results {
		if err != nil {
			return err
		}
		if err := fn(i, res.TargetBER, res); err != nil {
			return err
		}
		i++
	}
	return nil
}

func (l local) NetworkSim(ctx context.Context, req NoCRequest) (netsim.NetResults, error) {
	cfg, opts, err := req.network()
	if err != nil {
		return netsim.NetResults{}, err
	}
	return l.eng.SimulateNetwork(ctx, cfg, engine.NetworkSimOptions{
		TargetBER:               opts.TargetBER,
		Objective:               opts.Objective,
		DAC:                     opts.DAC,
		Traffic:                 opts.Traffic,
		InjectionRateBitsPerSec: opts.InjectionRateBitsPerSec,
		MessageBits:             opts.MessageBits,
		Messages:                req.Messages,
		Seed:                    req.Seed,
		MaxQueueDepth:           req.MaxQueueDepth,
	})
}

func (l local) Tune(ctx context.Context, req NoCTuneRequest, fn func(gen int, front []tune.Point) error) (*tune.Result, error) {
	opts, err := req.options()
	if err != nil {
		return nil, err
	}
	opts.OnGeneration = fn
	return tune.Run(ctx, l.eng, opts)
}
