// Package store provides pluggable checkpoint storage for the execution
// runtime (internal/exec): a small Store interface, an in-memory
// implementation, a crash-durable file implementation built on the
// repo's temp+fsync+rename discipline (internal/fsx), a checksummed
// schema-versioned codec layer, and a deterministic fault-injecting
// decorator for robustness testing.
//
// The intended composition is the one Stack builds, innermost first:
// bottom → fault → remote → codec → quorum → lease → quota. Every
// caller gets it from one declarative spec:
//
//	store.Stack{Bottoms: []store.Store{fs}}.Build()                  // production
//	store.Stack{Bottoms: []store.Store{mem}, Faults: &plan}.Build()  // fault drills
//	store.Stack{Bottoms: reps, Net: &cfg, W: 2, Lease: &lc}.Build()  // replicated, fenced
//
// Checked applies the codec: every payload is sealed (magic, schema
// version, length, CRC-32) on Save and verified on Load, so a torn or
// bit-rotted checkpoint surfaces as ErrCorrupt instead of being handed
// to the executor as good state. The executor treats ErrCorrupt as
// "fall back to the previous checkpoint", which is what makes torn
// writes survivable rather than fatal.
package store

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
)

// ErrNotFound reports a missing checkpoint (unknown run or sequence).
var ErrNotFound = errors.New("store: checkpoint not found")

// ErrCorrupt reports a checkpoint that failed codec verification: bad
// magic, unsupported schema version, truncated payload or checksum
// mismatch — the expected residue of a write torn by a crash.
var ErrCorrupt = errors.New("store: corrupt checkpoint")

// Store persists checkpoint payloads keyed by (run ID, sequence number).
// Save overwrites: re-executing a segment after a rollback re-saves the
// same sequence, and the latest write wins. Implementations must be safe
// for concurrent use by multiple goroutines operating on distinct runs;
// a single run is always driven by one executor at a time.
//
// Metadata listings (ListInfo) reach through decorators by Unwrap, so a
// decorator whose List does work of its own — charges latency, can time
// out, injects faults — must implement InfoLister and charge exactly
// what its List charges. Only layers whose List forwards unchanged may
// leave it out.
type Store interface {
	// Save persists payload as checkpoint seq of run.
	Save(run string, seq uint64, payload []byte) error
	// Load returns checkpoint seq of run, or ErrNotFound.
	Load(run string, seq uint64) ([]byte, error)
	// List returns the sequence numbers persisted for run, ascending.
	// A run with no checkpoints yields an empty list and no error.
	List(run string) ([]uint64, error)
	// Delete removes checkpoint seq of run; removing a missing
	// checkpoint returns ErrNotFound.
	Delete(run string, seq uint64) error
}

// Unwrapper is implemented by decorator stores that expose their inner
// store, so capability discovery (RunLatency) can walk a composed
// stack.
type Unwrapper interface {
	Unwrap() Store
}

// ClockBinder is implemented by layers whose outcomes depend on virtual
// time (RemoteStore evaluates partition windows at delivery time).
// BindClock registers the time source for one run; an unbound run reads
// time zero.
type ClockBinder interface {
	BindClock(run string, now func() float64)
}

// BindClock walks the decorator stack of s and registers now as run's
// virtual-time source with every layer that consumes one. Stores that
// fan out to several inner stores (QuorumStore) implement ClockBinder
// themselves and forward the binding to each replica, so a single call
// at the top of a composed stack reaches every time-dependent layer.
// Returns the number of layers bound; zero means the stack is
// time-independent.
func BindClock(s Store, run string, now func() float64) int {
	bound := 0
	for s != nil {
		if b, isBinder := s.(ClockBinder); isBinder {
			b.BindClock(run, now)
			bound++
		}
		u, isWrapper := s.(Unwrapper)
		if !isWrapper {
			break
		}
		s = u.Unwrap()
	}
	return bound
}

// runLatencyReader is the capability behind RunLatency; FaultStore
// implements it.
type runLatencyReader interface {
	RunLatency(run string) float64
}

// lastOpReader is the capability behind LastOp; FaultStore implements
// it.
type lastOpReader interface {
	LastOp(run string) RunOp
}

// LastOp walks the decorator stack of s looking for a layer that tracks
// per-run operations (FaultStore) and returns the run's operation count
// and the EXACT injected latency of its most recent operation. ok is
// false when no layer tracks operations. Replay-deterministic callers
// must use this — comparing Ops before and after an operation tells
// them whether the injector was reached (a quota layer may reject
// first), and Latency is the drawn value itself, free of the
// accumulation rounding that differencing RunLatency would pick up.
func LastOp(s Store, run string) (op RunOp, ok bool) {
	if r, found := find[lastOpReader](s); found {
		return r.LastOp(run), true
	}
	return RunOp{}, false
}

// RunLatency walks the decorator stack of s looking for a layer that
// attributes injected virtual latency per run (FaultStore), and returns
// that run's accumulated latency. ok is false when no layer in the
// stack tracks latency — a real store whose latency is wall-clock, not
// virtual — in which case callers should treat latency as unobservable
// rather than zero-cost.
func RunLatency(s Store, run string) (latency float64, ok bool) {
	if r, found := find[runLatencyReader](s); found {
		return r.RunLatency(run), true
	}
	return 0, false
}

// find walks the decorator stack of s by Unwrap, outermost first, and
// returns the first layer that is a T.
func find[T any](s Store) (T, bool) {
	for s != nil {
		if t, ok := s.(T); ok {
			return t, true
		}
		u, ok := s.(Unwrapper)
		if !ok {
			break
		}
		s = u.Unwrap()
	}
	var zero T
	return zero, false
}

// Sum is a SHA-256 digest of the bytes a store holds for one key.
type Sum [sha256.Size]byte

// Info is one key's listing metadata: its sequence number, the size of
// the stored bytes and their digest. A zero Sum means the digest is
// unknown (the stack had no InfoLister); an unknown digest matches
// nothing, not even another unknown one.
type Info struct {
	Seq  uint64
	Size int64
	Sum  Sum
}

// Known reports whether the listing carries a real digest.
func (i Info) Known() bool { return i.Sum != Sum{} }

// InfoLister is implemented by stores that can list a run's keys with
// content digests without sending the payloads. Backends (MemStore,
// FileStore) hash what they hold; decorators whose List does work
// (RemoteStore, FaultStore) charge the listing like a List and forward
// it inward.
type InfoLister interface {
	// ListInfo returns run's keys in ascending seq order with their
	// sizes and digests. A run with no checkpoints yields an empty list.
	ListInfo(run string) ([]Info, error)
}

// ListInfo returns run's key metadata from the first layer of s that
// implements InfoLister, walking Unwrap through layers whose List
// forwards unchanged. A stack with no implementer falls back to List
// and returns unknown digests.
func ListInfo(s Store, run string) ([]Info, error) {
	if l, found := find[InfoLister](s); found {
		return l.ListInfo(run)
	}
	seqs, err := s.List(run)
	if err != nil {
		return nil, err
	}
	infos := make([]Info, len(seqs))
	for i, sq := range seqs {
		infos[i] = Info{Seq: sq}
	}
	return infos, nil
}

// Latest returns the highest sequence number persisted for run, with
// ok=false when the run has no checkpoints.
func Latest(s Store, run string) (seq uint64, ok bool, err error) {
	seqs, err := s.List(run)
	if err != nil {
		return 0, false, err
	}
	if len(seqs) == 0 {
		return 0, false, nil
	}
	return seqs[len(seqs)-1], true, nil
}

// validRun rejects run IDs that cannot double as path components — the
// file store maps runs to directories, and the other implementations
// enforce the same rule so a run ID that works on one store works on
// all of them.
func validRun(run string) error {
	if run == "" {
		return fmt.Errorf("store: empty run ID")
	}
	if strings.ContainsAny(run, "/\\") || run == "." || run == ".." {
		return fmt.Errorf("store: run ID %q must be a single path component", run)
	}
	return nil
}
