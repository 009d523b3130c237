package main

import (
	"time"

	"repro/internal/store"
)

// spanKind names a traced boundary. The store kinds follow the fixed
// kinds, one per (decorator layer, store operation) pair.
type spanKind uint16

const (
	kindCorePlan spanKind = iota // core.NewChainProblem + core.SolveChainDPStats
	kindCoreDAG                  // core.SolveDAG
	kindSimMC                    // sim.MonteCarloPlan
	kindExec                     // one exec.Execute call
	kindSync                     // one RunSyncer.SyncRun pass
	kindScrub                    // one RunScrubber.ScrubRun pass
	kindStore                    // first store kind, see storeKind
)

// layer is one store decorator of the benchmarked stack, outermost first.
type layer uint8

const (
	layerQuota layer = iota
	layerLease
	layerQuorum
	layerCodec
	layerRemote
	layerMem
	numLayers
)

var layerNames = [numLayers]string{"quota", "lease", "quorum", "codec", "remote", "mem"}

// storeOp is one method of store.Store.
type storeOp uint8

const (
	opSave storeOp = iota
	opLoad
	opList
	opDelete
	numStoreOps
)

var storeOpNames = [numStoreOps]string{"save", "load", "list", "delete"}

func storeKind(l layer, op storeOp) spanKind {
	return kindStore + spanKind(l)*spanKind(numStoreOps) + spanKind(op)
}

const numKinds = int(kindStore) + int(numLayers)*int(numStoreOps)

// span is one timed call: its kind, the span that was open when it
// started (−1 at the top level of an op), and its interval in
// nanoseconds since the tracer's epoch.
type span struct {
	kind       spanKind
	parent     int32
	start, end int64
}

// kindTotals is what the spans of one kind add up to.
type kindTotals struct {
	n      int64
	durNs  int64 // summed span durations
	selfNs int64 // durations minus the union of child intervals
}

// tracer records the spans of one op in memory and folds them into
// per-kind totals when the op ends, so memory stays bounded by the
// largest op rather than the run. Every benchmark op is driven by one
// goroutine and the store stack calls its replicas sequentially, so a
// single stack of open spans gives each span its parent. A nil tracer
// records nothing.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32

	covered, coverEnd []int64 // fold's scratch, reused across ops

	kinds  [numKinds]kindTotals
	layers [numLayers]layerCounts
	sync   syncCounts
	ops    int // ops folded so far
}

// layerCounts are one decorator's totals beyond its spans.
type layerCounts struct {
	errN, bytesOut, bytesIn int64
}

// syncCounts total what the spanned sync and scrub passes reported.
type syncCounts struct {
	seqsVisited, copied, pairs int64 // SyncRun: seqs, copies, seq×replica pairs
	checked, repaired          int64 // ScrubRun
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span of kind k and returns its handle for end.
func (t *tracer) begin(k spanKind) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{kind: k, parent: parent, start: t.now()})
	idx := int32(len(t.spans) - 1)
	t.open = append(t.open, idx)
	return idx
}

// end closes the span begin returned.
func (t *tracer) end(idx int32) {
	if t == nil {
		return
	}
	t.spans[idx].end = t.now()
	t.open = t.open[:len(t.open)-1]
}

// fold closes the current op: it computes every span's self time,
// adds the op's spans to the per-kind totals and returns the summed
// duration of the op's top-level spans, which the caller compares with
// the op's wall time. Spans are appended in start order, so each
// parent sees its children in start order and the union of their
// intervals can be merged in one pass.
func (t *tracer) fold() (topLevelNs int64) {
	n := len(t.spans)
	if cap(t.covered) < n {
		t.covered, t.coverEnd = make([]int64, n), make([]int64, n)
	}
	covered, coverEnd := t.covered[:n], t.coverEnd[:n]
	clear(covered)
	clear(coverEnd)
	for _, s := range t.spans {
		if s.parent < 0 {
			topLevelNs += s.end - s.start
			continue
		}
		p := s.parent
		switch {
		case s.start >= coverEnd[p]:
			covered[p] += s.end - s.start
			coverEnd[p] = s.end
		case s.end > coverEnd[p]:
			covered[p] += s.end - coverEnd[p]
			coverEnd[p] = s.end
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		k := &t.kinds[s.kind]
		k.n++
		k.durNs += d
		k.selfNs += d - covered[i]
	}
	t.spans = t.spans[:0]
	t.ops++
	return topLevelNs
}

// shim times every call into one store decorator. It implements
// store.Store and Unwrap, so capability walks (LastOp, BindClock,
// AcquireLease, FindSyncer) see through it, and deliberately not
// ClockBinder, so clock bindings reach the wrapped layer unchanged.
type shim struct {
	inner store.Store
	tr    *tracer
	layer layer
}

// wrap puts a timing shim around s, or returns s itself when tr is nil.
// A layer that can sync and scrub (the quorum) gets a shim that passes
// both through with spans of their own.
func wrap(tr *tracer, l layer, s store.Store) store.Store {
	if tr == nil {
		return s
	}
	sh := &shim{inner: s, tr: tr, layer: l}
	if q, ok := s.(*store.QuorumStore); ok {
		return &quorumShim{shim: sh, q: q}
	}
	return sh
}

func (s *shim) finish(idx int32, out, in int, err error) {
	s.tr.end(idx)
	c := &s.tr.layers[s.layer]
	if err != nil {
		c.errN++
	}
	c.bytesOut += int64(out)
	c.bytesIn += int64(in)
}

func (s *shim) Save(run string, seq uint64, payload []byte) error {
	idx := s.tr.begin(storeKind(s.layer, opSave))
	err := s.inner.Save(run, seq, payload)
	s.finish(idx, len(payload), 0, err)
	return err
}

func (s *shim) Load(run string, seq uint64) ([]byte, error) {
	idx := s.tr.begin(storeKind(s.layer, opLoad))
	data, err := s.inner.Load(run, seq)
	s.finish(idx, 0, len(data), err)
	return data, err
}

func (s *shim) List(run string) ([]uint64, error) {
	idx := s.tr.begin(storeKind(s.layer, opList))
	seqs, err := s.inner.List(run)
	s.finish(idx, 0, 0, err)
	return seqs, err
}

func (s *shim) Delete(run string, seq uint64) error {
	idx := s.tr.begin(storeKind(s.layer, opDelete))
	err := s.inner.Delete(run, seq)
	s.finish(idx, 0, 0, err)
	return err
}

func (s *shim) Unwrap() store.Store { return s.inner }

// quorumShim adds spanned SyncRun and ScrubRun to the quorum's shim.
type quorumShim struct {
	*shim
	q *store.QuorumStore
}

func (s *quorumShim) SyncRun(run string) (store.SyncReport, error) {
	idx := s.tr.begin(kindSync)
	rep, err := s.q.SyncRun(run)
	s.tr.end(idx)
	c := &s.tr.sync
	c.seqsVisited += int64(rep.Seqs)
	c.copied += int64(rep.Copied)
	c.pairs += int64(rep.Seqs * s.q.Replicas())
	return rep, err
}

func (s *quorumShim) ScrubRun(run string) (store.ScrubReport, error) {
	idx := s.tr.begin(kindScrub)
	rep, err := s.q.ScrubRun(run)
	s.tr.end(idx)
	s.tr.sync.checked += int64(rep.Checked)
	s.tr.sync.repaired += int64(rep.Repaired)
	return rep, err
}

var (
	_ store.Store       = (*shim)(nil)
	_ store.Unwrapper   = (*shim)(nil)
	_ store.RunSyncer   = (*quorumShim)(nil)
	_ store.RunScrubber = (*quorumShim)(nil)
)
