// Package exec is the crash-safe execution runtime: it runs checkpoint
// plans — chains and linearized DAGs alike, compiled to a Workload —
// against a live failure Source under a virtual clock, losing
// uncheckpointed progress on every failure exactly as the paper's model
// prescribes, persisting committed checkpoints through a pluggable
// store.Store, and recording a structured Journal of every attempt,
// failure, restore and checkpoint.
//
// The package's load-bearing property is replay determinism: because
// failure gaps are position-indexed (Source.State is just "which gap,
// how far into it") and the checkpoint payload round-trips every
// accumulator bit-exactly, a run that is killed at any point and
// resumed from the store produces a final journal byte-identical to the
// journal of an uninterrupted run. That is what makes the planned
// expectations of internal/core directly comparable to realized
// executions, crashes and all — and it is pinned by the crash-harness
// tests, which kill the executor at injected fault points (including
// torn writes and lost checkpoints from store.FaultStore) and diff the
// journals.
package exec

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/store"
)

// ErrCrashed is returned when an injected crash point (CrashAfterEvents
// or CrashAfterSaves) aborts the execution. State already persisted to
// the store is intact; re-invoking Execute resumes from it.
var ErrCrashed = errors.New("exec: injected crash")

// ErrTooManyFailures is returned when one execution exceeds its failure
// budget — the guard against configurations that cannot make progress.
var ErrTooManyFailures = errors.New("exec: failure budget exhausted; execution cannot make progress")

// ErrFingerprint is returned when a persisted checkpoint belongs to a
// different (workload, source) pair than the one being executed.
var ErrFingerprint = errors.New("exec: checkpoint fingerprint mismatch (different workload or failure source)")

// Metrics decomposes an execution, with the same fields and semantics
// as sim.RunStats so realized executions and simulated runs compare
// field-for-field.
type Metrics struct {
	// Makespan is the virtual wall-clock time of the whole execution.
	Makespan float64
	// Failures counts failure strikes (during work, checkpointing or
	// recovery).
	Failures int
	// Lost is wasted work and checkpoint time (rolled back on failure).
	Lost float64
	// Downtime is total downtime served.
	Downtime float64
	// RecoveryTime is total time in recoveries, failed attempts included.
	RecoveryTime float64
	// Useful is work plus checkpoint time that stuck.
	Useful float64
	// StoreOverhead is virtual time burned on the store side channel —
	// injected save latency plus retry backoff delays. It is included in
	// Makespan but kept out of the sim.RunStats-aligned fields above
	// (always 0 without a store).
	StoreOverhead float64
}

// Result is the outcome of one Execute call.
type Result struct {
	Metrics
	// Journal is the full structured record, including any prefix
	// restored from a checkpoint.
	Journal Journal
	// Checkpoints counts committed checkpoints in the journal.
	Checkpoints int
	// Saves counts the successful saves of checkpoints this invocation
	// committed; the re-save of the restored checkpoint on resume does
	// not count.
	Saves int
	// Resumed reports whether state was restored from the store,
	// ResumeSeq which checkpoint sequence it was restored from, and
	// RestoredEvents how many journal events were rebuilt from that
	// checkpoint's chain (its own delta plus its ancestors'). ResumeLoads
	// counts the checkpoints loaded while resuming, chain links and
	// fallbacks past unusable candidates included.
	Resumed        bool
	ResumeSeq      uint64
	RestoredEvents int
	ResumeLoads    int
	// Replans counts online replans applied over the run's lifetime,
	// GiveUps the commits whose save was abandoned, Level the final
	// degradation-ladder position, and MaxRewind the worst crash-rewind
	// exposure (virtual time between a moment of execution and the last
	// PERSISTED checkpoint) the run ever carried.
	Replans   int
	GiveUps   int
	Level     DegradeLevel
	MaxRewind float64
	// OverheadEstimate is the store-health EWMA estimate of
	// per-checkpoint overhead at run end — the realized-telemetry figure
	// a planner can feed back into a latency-aware re-solve (see
	// ProbeStore and ChainReplanner).
	OverheadEstimate float64
	// Epoch is the fencing epoch this invocation held, when the store
	// stack carries a lease layer (0 otherwise). A resumed run reports
	// a strictly higher epoch than the invocation it took over from.
	Epoch uint64
	// Syncs counts anti-entropy passes run at executor idle points,
	// SyncCopied the replica copies those passes wrote, and
	// SyncFailures the passes that could not fully converge (e.g.
	// mid-partition) and will be retried at the next idle point.
	Syncs        int
	SyncCopied   int
	SyncFailures int
}

// Options tunes an execution.
type Options struct {
	// RunID names the run in the store ("run" when empty).
	RunID string
	// Store persists checkpoints; nil disables persistence (the
	// execution model is unchanged — checkpoint costs are still paid).
	Store store.Store
	// Downtime is D, the failure-free delay after every failure.
	Downtime float64
	// MaxFailures bounds failures tolerated per invocation (0 means the
	// default of 10 million).
	MaxFailures int
	// CrashAfterEvents, when positive, aborts with ErrCrashed as soon as
	// the journal holds that many events — a deterministic kill point
	// anywhere in the execution, including between a checkpoint event
	// and its save.
	CrashAfterEvents int
	// CrashAfterSaves, when positive, aborts with ErrCrashed right after
	// the n-th successful save of a checkpoint this invocation committed
	// (the re-save of the restored checkpoint on resume does not count).
	CrashAfterSaves int
	// Adaptive tunes how committed checkpoints reach the Store: the
	// retry policy, online replanning, failover and persistence-off
	// (see AdaptiveOptions). Nil means the zero-value AdaptiveOptions:
	// no retries and the default ladder. Setting it requires a Store.
	Adaptive *AdaptiveOptions
}

// defaultAdaptive is what a nil Options.Adaptive means. It is shared
// and never written.
var defaultAdaptive AdaptiveOptions

func (o Options) runID() string {
	if o.RunID == "" {
		return "run"
	}
	return o.RunID
}

func (o Options) maxFailures() int {
	if o.MaxFailures <= 0 {
		return 10_000_000
	}
	return o.MaxFailures
}

// executor is the state of one Execute invocation.
type executor struct {
	w    *Workload
	src  Source
	opts Options
	fp   uint64 // workload fingerprint mixed with source fingerprint

	t       float64 // virtual clock
	met     Metrics
	j       Journal
	attempt float64 // elapsed time of the in-flight attempt
	curSeg  int
	saves   int
	budget  int

	// Executor-local segment layout. Initially aliases the Workload's
	// arrays; online replans replace the slices wholesale (spliceAt), so
	// the shared Workload is never mutated.
	segStart, segEnd []int
	segCkpt, segRec  []float64

	// Persistence state: the store-side options (never nil), the active
	// store, its health, the degradation ladder and exposure accounting.
	ad           *AdaptiveOptions
	store        store.Store // active store (primary, or secondary after failover)
	failedOver   bool        // store is the secondary
	health       StoreHealth
	level        DegradeLevel
	consec       int // consecutive commit give-ups on the active store
	giveups      int // lifetime commit give-ups
	sinceDown    int // commits skipped since the last ride-out probe
	replans      int // replans applied (including replayed ones)
	lastOverhead float64
	lastReplanAt int64 // commit index of the last replan; −1 = never
	lastPersistT float64
	maxRewind    float64
	baseCost     float64

	// Checkpoint chain (see snapshot): links is the stack of persisted
	// checkpoints the next payload may build on, each one the chain
	// parent of the link above it; digest is the running FNV-64a of the
	// first digestN journal events, folded at encode time only.
	links   []link
	digest  uint64
	digestN int

	// Anti-entropy pass counters (SyncEvery > 0); never journaled.
	syncs        int
	syncCopied   int
	syncFailures int

	// pending is the in-flight store overhead of the current save loop
	// (accrued latency + backoffs not yet folded into t). The virtual
	// clock bound to time-dependent store layers reads t + pending, so
	// retries and backoff advance delivery time mid-commit — an
	// execution backing off across a partition window's end observes
	// the heal. Always zero at state-encode time, so it never needs to
	// round-trip through the checkpoint.
	pending float64
}

// Execute runs the workload against src. With a store configured it
// first tries to resume from the latest loadable checkpoint (falling
// back to older ones past corrupt, lost or unreadable entries), then
// executes the remaining segments, persisting a checkpoint after each.
// On ErrCrashed (injected kill) or a store failure, the returned Result
// carries the partial journal; re-invoking Execute with the same
// arguments resumes and completes the run.
func Execute(w *Workload, src Source, opts Options) (*Result, error) {
	if opts.Downtime < 0 {
		return nil, fmt.Errorf("exec: negative downtime %v", opts.Downtime)
	}
	if w.Segments() == 0 {
		return nil, errors.New("exec: workload has no segments")
	}
	ex := &executor{
		w:      w,
		src:    src,
		opts:   opts,
		fp:     w.Fingerprint() ^ (src.Fingerprint() * 0x9e3779b97f4a7c15),
		budget: opts.maxFailures(),
		digest: fnvOffset64,

		segStart: w.segStart,
		segEnd:   w.segEnd,
		segCkpt:  w.segCkpt,
		segRec:   w.segRec,
	}
	ex.ad = opts.Adaptive
	if ex.ad == nil {
		ex.ad = &defaultAdaptive
	} else if opts.Store == nil {
		return nil, errors.New("exec: adaptive options require a store")
	}
	ex.store = opts.Store
	ex.health = newStoreHealth(ex.ad.Alpha, ex.ad.Window)
	ex.lastReplanAt = -1
	ex.baseCost = ex.resolveBaseCost()
	res := &Result{}
	if opts.Store != nil {
		// Bind the run's virtual clock into every time-dependent store
		// layer (RemoteStore partition evaluation). The closure reads
		// the live executor clock plus any in-flight save overhead, so
		// delivery times track the commit's own retries.
		clock := func() float64 { return ex.t + ex.pending }
		store.BindClock(opts.Store, opts.runID(), clock)
		if ex.ad.Secondary != nil {
			store.BindClock(ex.ad.Secondary, opts.runID(), clock)
		}
		// Epoch-fenced writes: when the stack carries a lease layer,
		// claim the run before touching it. A fresh LeaseStore instance
		// (a new process) bumps the epoch, fencing every older writer's
		// saves; re-entering on the same instance (a zombie waking up)
		// keeps its stale session and is fenced on its first write.
		ls, leased, lerr := store.AcquireLease(opts.Store, opts.runID())
		if lerr != nil {
			return res, fmt.Errorf("exec: acquiring run lease: %w", lerr)
		}
		if leased {
			res.Epoch = ls.Epoch
		}
	}
	startSeg := 0
	rp, err := ex.loadResume(&res.ResumeLoads)
	if err != nil {
		return res, err
	}
	if rp != nil {
		st := rp.top
		ex.t = st.t
		ex.met = st.met
		ex.j = rp.journal
		ex.links = rp.links
		ex.digest, ex.digestN = st.digest, len(rp.journal)
		ex.src.Restore(st.src)
		startSeg = int(st.nextSeg)
		res.Resumed = true
		res.ResumeSeq = st.seq
		res.RestoredEvents = len(rp.journal)
		if err := ex.restoreAdaptive(st); err != nil {
			return res, err
		}
	}
	err = func() error {
		if rp != nil {
			// Re-save the restored payload through the normal post-encode
			// path. The save outcomes of commit k happen AFTER payload k is
			// encoded, so they are not inside it; re-saving against the
			// logically-keyed store stack regenerates the same outcome
			// events, clock overhead and ladder moves the uninterrupted run
			// produced at that commit. It is not a new commit, so it does
			// not count toward Saves or CrashAfterSaves. A landed re-save
			// pushes the restored checkpoint onto the rebuilt chain, as
			// the uninterrupted run's save did.
			if _, err := ex.persist(link{rp.top.seq, rp.top.events}, rp.raw); err != nil {
				return err
			}
		}
		for s := startSeg; s < len(ex.segStart); s++ {
			if err := ex.runSegment(s); err != nil {
				return err
			}
			if err := ex.commit(s); err != nil {
				return err
			}
			// Anti-entropy at the executor's idle point between commits,
			// keyed to the absolute segment index so the cadence is
			// resume-invariant.
			if ex.ad.SyncEvery > 0 && (s+1)%ex.ad.SyncEvery == 0 {
				ex.syncPass()
			}
		}
		if err := ex.event(Event{Kind: EvComplete, Time: ex.t}); err != nil {
			return err
		}
		// One final pass after completion so the run ends with every
		// replica it can reach converged.
		if ex.ad.SyncEvery > 0 {
			ex.syncPass()
		}
		return nil
	}()
	ex.met.Makespan = ex.t
	if opts.Store != nil {
		ex.noteExposure()
	}
	res.Metrics = ex.met
	res.Journal = ex.j
	res.Checkpoints = ex.j.Count(EvCheckpoint)
	res.Saves = ex.saves
	res.Replans = ex.replans
	res.GiveUps = ex.giveups
	res.Level = ex.level
	res.MaxRewind = ex.maxRewind
	res.OverheadEstimate = ex.health.OverheadEstimate()
	res.Syncs = ex.syncs
	res.SyncCopied = ex.syncCopied
	res.SyncFailures = ex.syncFailures
	return res, err
}

// syncPass runs one anti-entropy pass over the active store, best
// effort: failures are counted, not surfaced — a pass that could not
// converge (mid-partition) is retried at the next idle point, and the
// read path still repairs in the meantime. Nothing here journals or
// advances the virtual clock, so replay identity is untouched.
func (ex *executor) syncPass() {
	sy, ok := store.FindSyncer(ex.opts.Store)
	if !ok {
		return
	}
	rep, err := sy.SyncRun(ex.opts.runID())
	ex.syncs++
	ex.syncCopied += rep.Copied
	if err != nil {
		ex.syncFailures++
	}
}

// event appends to the journal and fires the event-count crash point.
func (ex *executor) event(e Event) error {
	ex.j = append(ex.j, e)
	if n := ex.opts.CrashAfterEvents; n > 0 && len(ex.j) >= n {
		return fmt.Errorf("exec: crash after %d journal events (t=%v): %w", len(ex.j), ex.t, ErrCrashed)
	}
	return nil
}

// piece advances the execution through d units of atomic progress
// (one task's work, or a segment's checkpoint phase). It returns done =
// true if the piece completed, done = false if a failure struck — in
// which case the failure, downtime and recovery (with possible repeated
// failures) have all been served and the attempt must restart.
func (ex *executor) piece(d float64) (done bool, err error) {
	if next := ex.src.NextFailure(); next >= d {
		ex.src.Advance(d)
		ex.t += d
		ex.attempt += d
		return true, nil
	} else {
		// Failure mid-piece: everything since the attempt started is lost.
		ex.src.ObserveFailure()
		ex.t += next
		ex.met.Lost += ex.attempt + next
		ex.attempt = 0
		if err := ex.strike(); err != nil {
			return false, err
		}
	}
	// Downtime is failure-free by assumption; process clocks frozen.
	ex.t += ex.opts.Downtime
	ex.met.Downtime += ex.opts.Downtime
	// Recovery: failures possible; repeat until one completes.
	rec := ex.segRec[ex.curSeg]
	for {
		if next := ex.src.NextFailure(); next >= rec {
			ex.src.Advance(rec)
			ex.t += rec
			ex.met.RecoveryTime += rec
			break
		} else {
			ex.src.ObserveFailure()
			ex.t += next
			ex.met.RecoveryTime += next
			if err := ex.strike(); err != nil {
				return false, err
			}
			ex.t += ex.opts.Downtime
			ex.met.Downtime += ex.opts.Downtime
		}
	}
	return false, ex.event(Event{Kind: EvRestored, Time: ex.t})
}

// strike accounts one failure: budget check plus journal event.
func (ex *executor) strike() error {
	ex.met.Failures++
	if ex.met.Failures > ex.budget {
		return ErrTooManyFailures
	}
	return ex.event(Event{Kind: EvFailure, Time: ex.t})
}

// runSegment executes segment s to a committed checkpoint event,
// restarting the attempt from the segment start after every failure.
func (ex *executor) runSegment(s int) error {
	ex.curSeg = s
	start, end := ex.segStart[s], ex.segEnd[s]
	for {
		ex.attempt = 0
		if err := ex.event(Event{Kind: EvSegmentStart, Time: ex.t, Arg: int32(start)}); err != nil {
			return err
		}
		failed := false
		for pos := start; pos <= end; pos++ {
			done, err := ex.piece(ex.w.Weights[pos])
			if err != nil {
				return err
			}
			if !done {
				failed = true
				break
			}
			if err := ex.event(Event{Kind: EvTaskDone, Time: ex.t, Arg: int32(ex.w.Order[pos])}); err != nil {
				return err
			}
		}
		if failed {
			continue
		}
		done, err := ex.piece(ex.segCkpt[s])
		if err != nil {
			return err
		}
		if done {
			ex.met.Useful += ex.attempt
			ex.attempt = 0
			return ex.event(Event{Kind: EvCheckpoint, Time: ex.t, Seq: uint64(s) + 1})
		}
	}
}

// resumeCandidate is one listed checkpoint and the store holding it.
type resumeCandidate struct {
	seq       uint64
	secondary bool
}

// listOnce lists a run's checkpoints, riding out transient network
// loss: a lost list message surfaces as a timeout, and a retry is an
// independent draw (the network keys outcomes by attempt), so a small
// retry budget keeps a seeded message drop from killing a resume. A
// partition times out every attempt deterministically and still fails
// loudly after the budget. Like loads, list retries serve no backoff:
// resume happens outside the modeled timeline.
func (ex *executor) listOnce(st store.Store) ([]uint64, error) {
	seqs, err := st.List(ex.opts.runID())
	for extra := 0; errors.Is(err, store.ErrTimeout) && extra < 4; extra++ {
		seqs, err = st.List(ex.opts.runID())
	}
	return seqs, err
}

// listResume merges the primary's checkpoint listing with the
// failover secondary's (when one is configured), newest first,
// preferring the secondary on equal sequence numbers — the secondary
// only ever holds post-failover saves, which are the later writes.
func (ex *executor) listResume() ([]resumeCandidate, error) {
	seqs, err := ex.listOnce(ex.opts.Store)
	if err != nil {
		return nil, fmt.Errorf("exec: listing checkpoints: %w", err)
	}
	var sec []uint64
	if ex.ad.Secondary != nil {
		if sec, err = ex.listOnce(ex.ad.Secondary); err != nil {
			return nil, fmt.Errorf("exec: listing secondary checkpoints: %w", err)
		}
	}
	cands := make([]resumeCandidate, 0, len(seqs)+len(sec))
	i, k := len(seqs)-1, len(sec)-1
	for i >= 0 || k >= 0 {
		switch {
		case i < 0 || (k >= 0 && sec[k] >= seqs[i]):
			if i >= 0 && sec[k] == seqs[i] {
				i--
			}
			cands = append(cands, resumeCandidate{seq: sec[k], secondary: true})
			k--
		default:
			cands = append(cands, resumeCandidate{seq: seqs[i]})
			i--
		}
	}
	return cands, nil
}

// loadOnce loads one checkpoint, retrying transient errors up to the
// retry policy's attempt limit. Backoff delays are NOT served: resume
// happens outside the modeled timeline (an uninterrupted run performs
// no loads), so load retries must not advance any clock.
func (ex *executor) loadOnce(st store.Store, seq uint64) ([]byte, error) {
	pol := ex.ad.retry()
	for attempt := 1; ; attempt++ {
		data, err := st.Load(ex.opts.runID(), seq)
		if err == nil {
			return data, nil
		}
		if ClassifyStoreError(err) != ClassTransient {
			return nil, err
		}
		if _, retry := pol.Backoff(attempt, 0); !retry {
			return nil, err
		}
	}
}

// resumePoint is a checkpoint whose whole chain passed the resume
// checks: the decoded top, its raw payload (the resume re-saves it), the
// journal rebuilt from the chain, and the links below the top.
type resumePoint struct {
	top     *execState
	raw     []byte
	journal Journal
	links   []link
}

// loadedLink is one memoized checkpoint load; a nil st marks a seq that
// is unlisted, missing, corrupt or unreachable.
type loadedLink struct {
	st  *execState
	raw []byte
}

// loadResume finds the newest checkpoint whose chain is whole: every
// link back to the root loadable and decodable, each link's journal
// length equal to its child's parentEvents, and the rebuilt journal
// reproducing every link's digest. Candidates are tried newest first,
// consulting the secondary store too when one is configured; a
// candidate with a corrupt, lost, unreachable or inconsistent link falls
// back to the next one. Each seq is loaded at most once per resume, and
// *loads counts the loads. It returns nil with no error when no
// candidate survives (fresh start). A fingerprint mismatch on any link
// is a loud error: the store holds a different workload's state and
// silently restarting would mask it.
func (ex *executor) loadResume(loads *int) (*resumePoint, error) {
	if ex.opts.Store == nil {
		return nil, nil
	}
	cands, err := ex.listResume()
	if err != nil {
		return nil, err
	}
	secondary := make(map[uint64]bool, len(cands))
	for _, c := range cands {
		secondary[c.seq] = c.secondary
	}
	memo := make(map[uint64]loadedLink, len(cands))
	load := func(seq uint64) (loadedLink, error) {
		if l, ok := memo[seq]; ok {
			return l, nil
		}
		var l loadedLink
		if sec, listed := secondary[seq]; listed {
			from := ex.opts.Store
			if sec {
				from = ex.ad.Secondary
			}
			*loads++
			data, err := ex.loadOnce(from, seq)
			switch {
			case errors.Is(err, store.ErrCorrupt) || errors.Is(err, store.ErrNotFound) ||
				errors.Is(err, store.ErrInjected) || errors.Is(err, store.ErrTimeout):
				// Fall back to an older checkpoint. Timeouts included: a
				// partition active at resume time makes an entry
				// unreachable, not the run unresumable — replaying more
				// is always safe.
			case err != nil:
				return l, fmt.Errorf("exec: loading checkpoint %d: %w", seq, err)
			default:
				st, err := decodeState(data)
				if err != nil {
					return l, err
				}
				if st.fp != ex.fp {
					return l, fmt.Errorf("%w: checkpoint %d has %016x, want %016x",
						ErrFingerprint, seq, st.fp, ex.fp)
				}
				if st.seq == seq {
					l = loadedLink{st: st, raw: data}
				}
			}
		}
		memo[seq] = l
		return l, nil
	}
	for _, c := range cands {
		var chain []*execState // top first
		for seq := c.seq; ; {
			l, err := load(seq)
			if err != nil {
				return nil, err
			}
			if l.st == nil || (len(chain) > 0 && l.st.events != chain[len(chain)-1].parentEvents) {
				chain = nil
				break
			}
			chain = append(chain, l.st)
			if l.st.parentSeq == 0 {
				break
			}
			seq = l.st.parentSeq // strictly smaller (decodeState), so the walk ends
		}
		if chain == nil {
			continue
		}
		if rp, ok := rebuildChain(chain); ok {
			rp.raw = memo[c.seq].raw
			return rp, nil
		}
	}
	return nil, nil
}

// rebuildChain concatenates a chain's journal deltas (chain is top
// first, its links' event counts already checked to abut) and verifies
// each link's digest against the rebuilt prefix.
func rebuildChain(chain []*execState) (*resumePoint, bool) {
	top := chain[0]
	rp := &resumePoint{top: top, journal: make(Journal, 0, top.events)}
	h := uint64(fnvOffset64)
	for i := len(chain) - 1; i >= 0; i-- {
		st := chain[i]
		h = fnvEvents(h, st.delta)
		if h != st.digest {
			return nil, false
		}
		rp.journal = append(rp.journal, st.delta...)
		if i > 0 {
			rp.links = append(rp.links, link{st.seq, st.events})
		}
	}
	return rp, true
}

// execState is the decoded checkpoint payload: every accumulator the
// executor owns, bit-exact, plus the source position, the checkpoint's
// place on its chain and the journal delta since its chain parent.
// Bit-exact float round-tripping is what makes resumed accumulations
// identical to uninterrupted ones, the persistence block (health,
// ladder, hysteresis anchors, exposure accounting, the active store)
// included.
type execState struct {
	fp      uint64
	seq     uint64
	nextSeg uint64
	t       float64
	met     Metrics
	src     SourceState

	healthCommits  uint64
	healthEwmaLat  float64
	healthEwmaOver float64
	healthBits     uint64
	healthNbits    uint64
	healthAttempts uint64
	healthFailures uint64
	level          uint64
	consec         uint64
	giveups        uint64
	replans        uint64
	lastOverhead   float64
	lastReplanAt1  uint64 // commit index of last replan + 1; 0 = never
	lastPersistT   float64
	maxRewind      float64
	sinceDown      uint64
	secondary      bool // saves go to the failover secondary

	// Chain position: parentSeq is the chain parent (0 for a root),
	// parentEvents its journal length, events this checkpoint's journal
	// length, digest the FNV-64a of the canonical encoding of the first
	// events journal events, and delta = journal[parentEvents:events].
	parentSeq    uint64
	parentEvents uint64
	events       uint64
	digest       uint64
	delta        Journal
}

// link is one persisted checkpoint on the executor's chain: its seq and
// the journal length when it was encoded.
type link struct {
	seq    uint64
	events uint64
}

// stateSchema versions the checkpoint payload (inside the store codec's
// frame, which versions the framing itself). Schema 2 appended the
// adaptive block to schema 1's twelve slots, reusing slot 11 (reserved)
// for StoreOverhead; schema 3 appended the ride-out probe counter
// (sinceDown); schema 4 appended the failover flag and the chain
// position, and replaced the full journal with the delta since the
// chain parent.
const stateSchema = 4

// stateHeaderSize is the fixed part of the payload before the delta.
const stateHeaderSize = 4 + 8*33

// encodeState serializes the checkpoint payload.
func encodeState(st *execState) []byte {
	out := make([]byte, stateHeaderSize, stateHeaderSize+len(st.delta)*eventSize)
	putU32(out, stateSchema)
	var secondary uint64
	if st.secondary {
		secondary = 1
	}
	fields := [...]uint64{
		st.fp,
		st.seq,
		st.nextSeg,
		math.Float64bits(st.t),
		uint64(st.met.Failures),
		math.Float64bits(st.met.Lost),
		math.Float64bits(st.met.Downtime),
		math.Float64bits(st.met.RecoveryTime),
		math.Float64bits(st.met.Useful),
		st.src.Draws,
		math.Float64bits(st.src.Consumed),
		math.Float64bits(st.met.StoreOverhead),
		st.healthCommits,
		math.Float64bits(st.healthEwmaLat),
		math.Float64bits(st.healthEwmaOver),
		st.healthBits,
		st.healthNbits,
		st.healthAttempts,
		st.healthFailures,
		st.level,
		st.consec,
		st.giveups,
		st.replans,
		math.Float64bits(st.lastOverhead),
		st.lastReplanAt1,
		math.Float64bits(st.lastPersistT),
		math.Float64bits(st.maxRewind),
		st.sinceDown,
		secondary,
		st.parentSeq,
		st.parentEvents,
		st.events,
		st.digest,
	}
	for i, v := range fields {
		putU64(out[4+8*i:], v)
	}
	return appendEvents(out, st.delta)
}

// errState reports a malformed checkpoint payload — a schema mismatch,
// truncation or inconsistent chain position that survived the store
// codec's CRC, i.e. a version skew rather than bit rot. It is loud, not
// skipped: resuming past it would silently discard real state.
var errState = errors.New("exec: malformed checkpoint payload")

// decodeState parses a checkpoint payload.
func decodeState(data []byte) (*execState, error) {
	if len(data) < stateHeaderSize {
		return nil, errState
	}
	if getU32(data) != stateSchema {
		return nil, fmt.Errorf("%w: schema %d, want %d", errState, getU32(data), stateSchema)
	}
	f := func(i int) uint64 { return getU64(data[4+8*i:]) }
	st := &execState{
		fp:      f(0),
		seq:     f(1),
		nextSeg: f(2),
		t:       math.Float64frombits(f(3)),
		met: Metrics{
			Failures:      int(f(4)),
			Lost:          math.Float64frombits(f(5)),
			Downtime:      math.Float64frombits(f(6)),
			RecoveryTime:  math.Float64frombits(f(7)),
			Useful:        math.Float64frombits(f(8)),
			StoreOverhead: math.Float64frombits(f(11)),
		},
		src: SourceState{Draws: f(9), Consumed: math.Float64frombits(f(10))},

		healthCommits:  f(12),
		healthEwmaLat:  math.Float64frombits(f(13)),
		healthEwmaOver: math.Float64frombits(f(14)),
		healthBits:     f(15),
		healthNbits:    f(16),
		healthAttempts: f(17),
		healthFailures: f(18),
		level:          f(19),
		consec:         f(20),
		giveups:        f(21),
		replans:        f(22),
		lastOverhead:   math.Float64frombits(f(23)),
		lastReplanAt1:  f(24),
		lastPersistT:   math.Float64frombits(f(25)),
		maxRewind:      math.Float64frombits(f(26)),
		sinceDown:      f(27),
		secondary:      f(28) == 1,

		parentSeq:    f(29),
		parentEvents: f(30),
		events:       f(31),
		digest:       f(32),
	}
	if f(28) > 1 {
		return nil, fmt.Errorf("%w: failover flag %d", errState, f(28))
	}
	if st.parentSeq >= st.seq || (st.parentSeq == 0 && st.parentEvents != 0) {
		return nil, fmt.Errorf("%w: checkpoint %d has chain parent %d at %d events",
			errState, st.seq, st.parentSeq, st.parentEvents)
	}
	delta, err := decodeEvents(data[stateHeaderSize:])
	if err != nil {
		return nil, err
	}
	if st.events < st.parentEvents || st.events-st.parentEvents != uint64(len(delta)) {
		return nil, fmt.Errorf("%w: checkpoint %d spans events [%d,%d) but carries %d",
			errState, st.seq, st.parentEvents, st.events, len(delta))
	}
	st.delta = delta
	return st, nil
}
