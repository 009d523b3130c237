package store

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/netsim"
)

// ErrTimeout reports a remote operation that missed its per-op
// deadline: the message was lost, cut off by a partition window, or
// simply drew a latency beyond the timeout. The executor classifies it
// as transient — retry, back off, degrade, ride out the window.
var ErrTimeout = errors.New("store: remote operation timed out")

// localEndpoint names the executor side of every remote hop.
const localEndpoint = "exec"

// RemoteConfig parameterizes a RemoteStore.
type RemoteConfig struct {
	// Remote names the store side's network endpoint ("store" when
	// empty); the executor side is always endpoint "exec". Partition
	// windows isolate endpoints by these names.
	Remote string
	// Timeout is the per-operation deadline in virtual time. A message
	// that is lost, partitioned, or slower than this charges exactly
	// Timeout and fails with ErrTimeout. When zero or negative, a
	// default of 8×(base latency + jitter mean), floor 1, applies.
	Timeout float64
}

// timeout resolves the effective deadline against the network config.
func (c RemoteConfig) timeout(net netsim.Config) float64 {
	if c.Timeout > 0 {
		return c.Timeout
	}
	d := 8 * (net.Latency + net.Jitter)
	if d < 1 {
		d = 1
	}
	return d
}

// RemoteStore routes Save/Load/List/Delete through a simulated network
// with per-op timeouts. Each operation sends one logical message
// (modeling the full request/response round trip); if the network
// loses it, a partition window cuts it, or the drawn latency exceeds
// the deadline, the operation charges exactly the timeout, fails with
// ErrTimeout, and never reaches the inner store. Otherwise the drawn
// latency — plus any virtual latency the inner stack itself injects —
// is charged and the inner operation runs.
//
// Partition windows are evaluated at the run's bound virtual time
// (BindClock); an unbound run reads time zero. Like FaultStore,
// every outcome is a pure function of the logical
// operation identity and its attempt ordinal, so concurrent runs never
// perturb each other and kill/resume replays re-observe identical
// outcomes.
//
// Stack composes Checked ABOVE the remote layer, so payloads that do
// land torn (an inner FaultStore below the network) surface as
// ErrCorrupt: detected, not decoded.
type RemoteStore struct {
	inner Store
	net   *netsim.Network
	cfg   RemoteConfig
	ttl   float64

	mu       sync.Mutex
	clocks   map[string]func() float64
	runOps   map[string]uint64
	runLat   map[string]float64
	lastLat  map[string]float64
	timeouts uint64
}

// NewRemoteStore wraps inner behind the simulated network.
func NewRemoteStore(inner Store, net *netsim.Network, netCfg netsim.Config, cfg RemoteConfig) *RemoteStore {
	if cfg.Remote == "" {
		cfg.Remote = "store"
	}
	return &RemoteStore{
		inner:   inner,
		net:     net,
		cfg:     cfg,
		ttl:     cfg.timeout(netCfg),
		clocks:  make(map[string]func() float64),
		runOps:  make(map[string]uint64),
		runLat:  make(map[string]float64),
		lastLat: make(map[string]float64),
	}
}

// BindClock registers run's virtual-time source, used to evaluate
// partition windows at delivery time.
func (r *RemoteStore) BindClock(run string, now func() float64) {
	r.mu.Lock()
	r.clocks[run] = now
	r.mu.Unlock()
}

// Timeout returns the effective per-operation deadline.
func (r *RemoteStore) Timeout() float64 { return r.ttl }

// Timeouts returns how many operations have timed out.
func (r *RemoteStore) Timeouts() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.timeouts
}

// LastOp returns the run's operation count and the exact virtual
// latency of its most recent operation (network transit plus any inner
// virtual latency, or the full timeout on failure).
func (r *RemoteStore) LastOp(run string) RunOp {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RunOp{Ops: r.runOps[run], Latency: r.lastLat[run]}
}

// RunLatency returns the total virtual latency attributed to one run.
func (r *RemoteStore) RunLatency(run string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.runLat[run]
}

// Unwrap exposes the inner store for capability discovery.
func (r *RemoteStore) Unwrap() Store { return r.inner }

// transit sends the operation's message. It returns the network
// latency to charge and a nil error on delivery, or ErrTimeout (with
// the timeout as the charged latency) when the message is lost,
// partitioned, or too slow.
func (r *RemoteStore) transit(kind uint64, opName, run string, seq uint64) (float64, error) {
	r.mu.Lock()
	clock := r.clocks[run]
	r.mu.Unlock()
	now := 0.0
	if clock != nil {
		now = clock()
	}
	out := r.net.Deliver(now, localEndpoint, r.cfg.Remote, netsim.Message{Kind: kind, Run: run, Seq: seq})
	if !out.OK() || out.Latency > r.ttl {
		r.mu.Lock()
		r.timeouts++
		r.mu.Unlock()
		why := "slow"
		switch {
		case out.Partitioned:
			why = "partitioned"
		case out.Lost:
			why = "lost"
		}
		return r.ttl, fmt.Errorf("store: %s %s/%d at t=%.6g (%s): %w", opName, run, seq, now, why, ErrTimeout)
	}
	return out.Latency, nil
}

// record books an operation's exact latency for run.
func (r *RemoteStore) record(run string, lat float64) {
	r.mu.Lock()
	r.runOps[run]++
	r.runLat[run] += lat
	r.lastLat[run] = lat
	r.mu.Unlock()
}

// innerLat runs op against the inner store and folds any virtual
// latency the inner stack charged for it into the returned total, so a
// composed Remote(Fault(...)) stack reports one coherent per-op cost.
func (r *RemoteStore) innerLat(run string, netLat float64, op func() error) (float64, error) {
	before, tracked := LastOp(r.inner, run)
	err := op()
	if tracked {
		if after, _ := LastOp(r.inner, run); after.Ops > before.Ops {
			netLat += after.Latency
		}
	}
	return netLat, err
}

// Save routes the save through the network, then the inner store.
func (r *RemoteStore) Save(run string, seq uint64, payload []byte) error {
	lat, err := r.transit(opSave, "save", run, seq)
	if err == nil {
		lat, err = r.innerLat(run, lat, func() error { return r.inner.Save(run, seq, payload) })
	}
	r.record(run, lat)
	return err
}

// Load routes the load through the network, then the inner store.
func (r *RemoteStore) Load(run string, seq uint64) ([]byte, error) {
	lat, err := r.transit(opLoad, "load", run, seq)
	var payload []byte
	if err == nil {
		lat, err = r.innerLat(run, lat, func() error {
			var ierr error
			payload, ierr = r.inner.Load(run, seq)
			return ierr
		})
	}
	r.record(run, lat)
	return payload, err
}

// List routes the enumeration through the network (seq 0, like the
// fault layer), then the inner store.
func (r *RemoteStore) List(run string) ([]uint64, error) {
	var seqs []uint64
	err := r.list(run, func() (err error) {
		seqs, err = r.inner.List(run)
		return err
	})
	return seqs, err
}

// ListInfo routes a metadata listing exactly like List — same message,
// same deadline, same charge — then lists the inner stack's digests.
func (r *RemoteStore) ListInfo(run string) ([]Info, error) {
	var infos []Info
	err := r.list(run, func() (err error) {
		infos, err = ListInfo(r.inner, run)
		return err
	})
	return infos, err
}

// list sends one enumeration message and, on delivery, runs op against
// the inner store.
func (r *RemoteStore) list(run string, op func() error) error {
	lat, err := r.transit(opList, "list", run, 0)
	if err == nil {
		lat, err = r.innerLat(run, lat, op)
	}
	r.record(run, lat)
	return err
}

// Delete routes the delete through the network, then the inner store.
func (r *RemoteStore) Delete(run string, seq uint64) error {
	lat, err := r.transit(opDelete, "delete", run, seq)
	if err == nil {
		lat, err = r.innerLat(run, lat, func() error { return r.inner.Delete(run, seq) })
	}
	r.record(run, lat)
	return err
}

var (
	_ Store       = (*RemoteStore)(nil)
	_ ClockBinder = (*RemoteStore)(nil)
	_ InfoLister  = (*RemoteStore)(nil)
)
