package store

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/rng"
)

// ErrInjected is wrapped by every fault the FaultStore injects, so
// callers can classify "the drill hit me" (retryable) apart from real
// I/O errors. ErrInjectedWrite and ErrInjectedRead refine it per
// operation.
var (
	ErrInjected      = errors.New("store: injected fault")
	ErrInjectedWrite = fmt.Errorf("%w: write failed", ErrInjected)
	ErrInjectedRead  = fmt.Errorf("%w: read failed", ErrInjected)
)

// FaultPlan parameterizes the deterministic fault injector. All
// probabilities are per-operation in [0, 1]; a zero plan injects
// nothing.
//
// Keyed-stream contract (the determinism guarantee): every operation —
// Save, Load, List and Delete alike — draws its injected latency and
// fault decision from a private stream derived from the plan seed and
// the operation's logical key, never from shared mutable stream state.
// The draw order within an operation is fixed: latency first, then the
// fault decision, then any fault-shaping draws (torn-write cut point,
// lose-old victim).
//
// The key is (op kind, run, seq, attempt), where attempt counts how
// many times this exact (kind, run, seq) operation has been issued to
// this injector instance. The injected outcome is therefore a pure
// function of the logical operation, independent of how operations
// from different runs interleave — which is what lets several tenants
// share one injector concurrently, and what lets a resumed run
// re-observe the outcomes a fresh injector dealt the uninterrupted run
// (a process restart builds a new injector, whose attempt counters
// start where the uninterrupted run's first encounter did).
type FaultPlan struct {
	// Seed drives every injection decision.
	Seed uint64
	// WriteFail is the probability a Save fails cleanly: the error is
	// reported and nothing is persisted. Models a full disk or a lost
	// connection caught before commit.
	WriteFail float64
	// TornWrite is the probability a Save persists only a prefix of the
	// payload AND reports failure. Models a crash mid-write on a store
	// without atomic rename: a corrupt artifact now occupies the slot.
	// Detection is the codec layer's job — compose Checked(FaultStore).
	TornWrite float64
	// LoseOld is the probability that a successful Save is followed by
	// the silent loss of one previously persisted checkpoint of the same
	// run (partial-state loss: retention bugs, eviction, bit rot taking
	// out an old file). The executor must then fall back further on
	// resume.
	LoseOld float64
	// ReadFail is the probability a Load fails transiently.
	ReadFail float64
	// MeanLatency, when positive, adds an Exp-distributed virtual
	// latency to EVERY operation — Save, Load, List and Delete —
	// accumulated in Stats.Latency and attributable per run through
	// RunLatency. Nothing sleeps: the executor folds the total into its
	// virtual clock accounting if it cares, and tests read it to pin
	// determinism.
	MeanLatency float64
}

// FaultStats counts what the injector did.
type FaultStats struct {
	// Ops is the number of operations seen (Save, Load, List, Delete).
	Ops uint64
	// WriteFails, TornWrites, LostOld and ReadFails count injections.
	WriteFails, TornWrites, LostOld, ReadFails uint64
	// Latency is the total injected virtual latency across all runs.
	Latency float64
}

// Fault-stream op kinds, part of the logical keying contract: each kind
// keys a disjoint stream family so loads can never perturb save
// outcomes.
const (
	opSave uint64 = iota + 1
	opLoad
	opList
	opDelete
)

// FaultStore wraps an inner store with deterministic, seeded fault
// injection. Compose as Checked(NewFaultStore(inner, plan)): the fault
// layer tears sealed frames, the codec layer detects the tears.
type FaultStore struct {
	inner Store
	plan  FaultPlan

	mu       sync.Mutex
	stats    FaultStats
	runLat   map[string]float64
	runOps   map[string]uint64
	lastLat  map[string]float64
	attempts map[faultOpKey]uint64
}

// RunOp is a per-run operation observation: Ops counts the run's
// operations that reached this injector, Latency is the injected
// latency of the most recent one — the EXACT drawn value, not a
// difference of accumulated sums. Executors that fold injected latency
// into a replayable virtual clock must consume these exact values:
// differencing a cumulative float total loses ulps depending on what
// the accumulator held before, which is invisible to the eye and fatal
// to bit-identical replay.
type RunOp struct {
	Ops     uint64
	Latency float64
}

// faultOpKey identifies a logical operation for attempt counting.
type faultOpKey struct {
	kind uint64
	run  string
	seq  uint64
}

// NewFaultStore wraps inner with the given fault plan.
func NewFaultStore(inner Store, plan FaultPlan) *FaultStore {
	return &FaultStore{
		inner:    inner,
		plan:     plan,
		runLat:   make(map[string]float64),
		runOps:   make(map[string]uint64),
		lastLat:  make(map[string]float64),
		attempts: make(map[faultOpKey]uint64),
	}
}

// Stats returns a snapshot of the injection counters.
func (f *FaultStore) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// RunLatency returns the total injected virtual latency attributed to
// one run (informational; concurrent tenants on a shared injector never
// see each other's stalls here).
func (f *FaultStore) RunLatency(run string) float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.runLat[run]
}

// LastOp returns the run's operation count and the exact injected
// latency of its most recent operation; see RunOp for why executors
// must read this rather than differencing RunLatency.
func (f *FaultStore) LastOp(run string) RunOp {
	f.mu.Lock()
	defer f.mu.Unlock()
	return RunOp{Ops: f.runOps[run], Latency: f.lastLat[run]}
}

// Unwrap exposes the inner store for capability discovery.
func (f *FaultStore) Unwrap() Store { return f.inner }

// hashRun folds a run ID into key material for logical streams.
func hashRun(run string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(run))
	return h.Sum64()
}

// opStream returns the keyed stream for an operation, advancing its
// attempt count.
func (f *FaultStore) opStream(kind uint64, run string, seq uint64) *rng.Stream {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Ops++
	f.runOps[run]++
	f.lastLat[run] = 0
	k := faultOpKey{kind: kind, run: run, seq: seq}
	f.attempts[k]++
	return rng.New(f.plan.Seed).Keyed(kind).Keyed(hashRun(run)).Keyed(seq).Keyed(f.attempts[k])
}

// lat draws and accumulates injected latency for run. Draw order within
// an operation is fixed (latency first, then the fault decision), which
// is part of the determinism contract.
func (f *FaultStore) lat(s *rng.Stream, run string) {
	if f.plan.MeanLatency <= 0 {
		return
	}
	d := s.ExpFloat64() * f.plan.MeanLatency
	f.mu.Lock()
	f.stats.Latency += d
	f.runLat[run] += d
	f.lastLat[run] = d
	f.mu.Unlock()
}

// Save injects write faults around the inner Save.
func (f *FaultStore) Save(run string, seq uint64, payload []byte) error {
	s := f.opStream(opSave, run, seq)
	f.lat(s, run)
	u := s.Float64()
	switch {
	case u < f.plan.WriteFail:
		f.count(func(st *FaultStats) { st.WriteFails++ })
		return fmt.Errorf("save %s/%d: %w", run, seq, ErrInjectedWrite)
	case u < f.plan.WriteFail+f.plan.TornWrite:
		// Persist a strict prefix — at least one byte short, possibly
		// almost nothing — and report failure, as a mid-write crash
		// would.
		cut := 0
		if len(payload) > 1 {
			cut = 1 + s.IntN(len(payload)-1)
		}
		if err := f.inner.Save(run, seq, payload[:cut]); err != nil {
			return err
		}
		f.count(func(st *FaultStats) { st.TornWrites++ })
		return fmt.Errorf("save %s/%d: torn after %d of %d bytes: %w", run, seq, cut, len(payload), ErrInjectedWrite)
	}
	if err := f.inner.Save(run, seq, payload); err != nil {
		return err
	}
	if s.Float64() < f.plan.LoseOld {
		f.loseOld(run, seq, s)
	}
	return nil
}

// loseOld deletes one keyed-chosen checkpoint with sequence below seq.
func (f *FaultStore) loseOld(run string, seq uint64, s *rng.Stream) {
	seqs, err := f.inner.List(run)
	if err != nil {
		return
	}
	older := seqs[:0]
	for _, q := range seqs {
		if q < seq {
			older = append(older, q)
		}
	}
	if len(older) == 0 {
		return
	}
	victim := older[s.IntN(len(older))]
	if f.inner.Delete(run, victim) == nil {
		f.count(func(st *FaultStats) { st.LostOld++ })
	}
}

// Load injects read faults around the inner Load.
func (f *FaultStore) Load(run string, seq uint64) ([]byte, error) {
	s := f.opStream(opLoad, run, seq)
	f.lat(s, run)
	if s.Float64() < f.plan.ReadFail {
		f.count(func(st *FaultStats) { st.ReadFails++ })
		return nil, fmt.Errorf("load %s/%d: %w", run, seq, ErrInjectedRead)
	}
	return f.inner.Load(run, seq)
}

// List pays injected latency like every other operation (enumeration
// round-trips to the store too); the interesting failure modes (missing
// or corrupt entries) are injected through Save/Load already. List
// operations key with seq 0.
func (f *FaultStore) List(run string) ([]uint64, error) {
	s := f.opStream(opList, run, 0)
	f.lat(s, run)
	return f.inner.List(run)
}

// ListInfo draws from the same keyed stream family as List (op kind
// opList, seq 0, one attempt), so a metadata listing charges the same
// latency a List would and leaves every other stream untouched.
func (f *FaultStore) ListInfo(run string) ([]Info, error) {
	s := f.opStream(opList, run, 0)
	f.lat(s, run)
	return ListInfo(f.inner, run)
}

// Delete pays injected latency; no faults are injected (deletion
// failure modes are covered by LoseOld on the save path).
func (f *FaultStore) Delete(run string, seq uint64) error {
	s := f.opStream(opDelete, run, seq)
	f.lat(s, run)
	return f.inner.Delete(run, seq)
}

func (f *FaultStore) count(fn func(*FaultStats)) {
	f.mu.Lock()
	fn(&f.stats)
	f.mu.Unlock()
}

var (
	_ Store      = (*FaultStore)(nil)
	_ InfoLister = (*FaultStore)(nil)
)
