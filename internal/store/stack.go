package store

import (
	"fmt"

	"repro/internal/netsim"
)

// Stack declares one composed checkpoint store. Every field is a value
// the layer constructors already take; Build applies the composition
// rules in one place, innermost first:
//
//	bottom → fault → remote → codec (Checked) → quorum → lease → quota
//
// Each replica is one bottom. The fault layer tears sealed frames and
// the codec above it detects the tear; the codec sits above the remote
// hop so torn and lost messages are detected, not decoded; the quorum
// (only with more than one bottom) out-votes and repairs sealed
// replicas; the lease record persists through the same quorum as the
// checkpoints it guards; and the quota layer stays outermost, metering
// what the tenant retains however it is replicated.
//
// Bottoms and Ledger survive across Builds; every other layer,
// including the simulated network, is created fresh by each Build —
// process-restart semantics, which reset the logical attempt counters
// exactly as the replay contract requires.
type Stack struct {
	// Bottoms are the backends, one per replica.
	Bottoms []Store
	// Faults, when set, wraps every bottom in a fault injector; replica
	// i draws from seed Faults.Seed+i.
	Faults *FaultPlan
	// Net, when set, puts every replica behind one simulated network
	// per Build; replica i is endpoint "s<i>".
	Net *netsim.Config
	// Timeout is each remote hop's per-operation deadline (zero picks
	// RemoteConfig's default). It needs Net.
	Timeout float64
	// W and R are the write and read quorums (zero picks the majority).
	// They need more than one bottom.
	W, R int
	// Lease, when set, fences writes with epoch-fenced leases.
	Lease *LeaseConfig
	// Ledger, when set, meters retained state against its quota.
	Ledger *QuotaLedger
}

// Build validates the spec and composes the stack.
func (s Stack) Build() (Store, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	var net *netsim.Network
	if s.Net != nil {
		net = netsim.New(*s.Net)
	}
	reps := make([]Store, len(s.Bottoms))
	for i, st := range s.Bottoms {
		if s.Faults != nil {
			plan := *s.Faults
			plan.Seed += uint64(i)
			st = NewFaultStore(st, plan)
		}
		if net != nil {
			st = NewRemoteStore(st, net, *s.Net, RemoteConfig{Remote: fmt.Sprintf("s%d", i), Timeout: s.Timeout})
		}
		reps[i] = Checked(st)
	}
	st := reps[0]
	if len(reps) > 1 {
		q, err := NewQuorumStore(reps, QuorumConfig{W: s.W, R: s.R})
		if err != nil {
			return nil, err
		}
		st = q
	}
	if s.Lease != nil {
		st = NewLeaseStore(st, *s.Lease)
	}
	if s.Ledger != nil {
		st = NewQuotaStore(s.Ledger, st)
	}
	return st, nil
}

// validate rejects values the layer constructors would silently accept
// or ignore.
func (s Stack) validate() error {
	switch {
	case len(s.Bottoms) == 0:
		return fmt.Errorf("store: stack needs at least one bottom store")
	case s.Timeout < 0:
		return fmt.Errorf("store: stack timeout %g is negative", s.Timeout)
	case s.Timeout > 0 && s.Net == nil:
		return fmt.Errorf("store: stack timeout %g needs a network", s.Timeout)
	case (s.W != 0 || s.R != 0) && len(s.Bottoms) < 2:
		return fmt.Errorf("store: stack quorum W=%d R=%d needs at least two bottoms, have %d", s.W, s.R, len(s.Bottoms))
	}
	if n := s.Net; n != nil {
		switch {
		case n.Loss < 0 || n.Loss > 1:
			return fmt.Errorf("store: stack network loss %g outside [0, 1]", n.Loss)
		case n.Latency < 0 || n.Jitter < 0:
			return fmt.Errorf("store: stack network latency %g and jitter %g must not be negative", n.Latency, n.Jitter)
		}
	}
	return nil
}
