package store

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
)

// ErrUnrepairable reports a scrub that found corrupt replicas it could
// not repair: fewer than R replicas hold a clean copy, so no read
// quorum vouches for any candidate payload and overwriting would risk
// blessing a wrong one. This is a loud, typed failure — the operator
// must restore the key from elsewhere (or accept the data loss), and
// silent continuation would let rot spread to the repair source itself.
var ErrUnrepairable = errors.New("store: corrupt replicas without a clean quorum to repair from")

// SyncReport summarizes one anti-entropy pass over a run.
type SyncReport struct {
	// Seqs is the number of distinct sequence numbers the pass visited
	// (the union of every reachable replica's listing).
	Seqs int
	// Copied counts replica copies written by this pass: (seq, replica)
	// pairs that were missing, corrupt, or byte-divergent and now hold
	// the quorum payload — whether the pass's own quorum reads
	// repaired them or the explicit copy sweep wrote them. Read repairs
	// by other callers of the same QuorumStore never count.
	Copied int
	// InSync counts (seq, replica) pairs shown to hold the quorum
	// payload by the end of the pass: by a listed digest that matches a
	// verified copy, or by a byte comparison.
	InSync int
	// LoadFailures counts seqs skipped because no quorum read could
	// establish a canonical payload (e.g. mid-partition), or because
	// every listed replica holds the same corrupt bytes.
	LoadFailures int
	// CopyFailures counts replica copies that failed (unreachable
	// replica); the pair stays divergent until the next pass.
	CopyFailures int
	// Unlisted counts replicas whose listing failed — their missing
	// seqs cannot be discovered this pass.
	Unlisted int
	// Probes counts the replica payload loads the pass performed.
	Probes int
	// BytesRead is the payload bytes those loads returned.
	BytesRead int64
}

// Converged reports whether the pass proved every replica it could see
// holds every seq bit-for-bit: nothing failed and nothing was left out.
func (r SyncReport) Converged() bool {
	return r.LoadFailures == 0 && r.CopyFailures == 0 && r.Unlisted == 0
}

// ScrubReport summarizes one scrub-and-repair pass over a run.
type ScrubReport struct {
	// Seqs is the number of distinct sequence numbers walked.
	Seqs int
	// Checked counts the (seq, replica) pairs the pass covered: every
	// replica of every seq walked. A copy's verdict comes from its own
	// probe, from a probe of a replica listing the same digest, or from
	// an earlier verification of that digest.
	Checked int
	// Corrupt counts replicas whose copy failed the Checked codec's
	// integrity check (ErrCorrupt).
	Corrupt int
	// Repaired counts corrupt replicas overwritten from a clean quorum.
	Repaired int
	// Unrepairable counts seqs with corrupt replicas but fewer than R
	// clean copies — no quorum vouches for a repair source.
	Unrepairable int
	// CopyFailures counts repair writes that failed.
	CopyFailures int
	// Probes counts the replica payload loads the pass performed.
	Probes int
	// BytesRead is the payload bytes those loads returned.
	BytesRead int64
}

// RunSyncer is the anti-entropy capability: stores that can converge a
// run's replicas without read traffic implement it.
type RunSyncer interface {
	SyncRun(run string) (SyncReport, error)
}

// RunScrubber is the scrub-and-repair capability.
type RunScrubber interface {
	ScrubRun(run string) (ScrubReport, error)
}

// FindSyncer walks the decorator stack for a RunSyncer.
func FindSyncer(s Store) (RunSyncer, bool) { return find[RunSyncer](s) }

// FindScrubber walks the decorator stack for a RunScrubber.
func FindScrubber(s Store) (RunScrubber, bool) { return find[RunScrubber](s) }

// runListing is one pass's view of a run across the replicas: each
// replica's metadata listing and the ascending union of the seqs they
// name.
type runListing struct {
	infos    [][]Info // per replica, ascending by seq
	listed   []bool   // whether the replica's listing succeeded
	unlisted int
	seqs     []uint64
}

// listRun lists every replica's key metadata for run, in ascending
// replica order. Fewer than R successful listings fail the pass (op
// names it) with the usual quorum error shape, so retry classification
// works: too few replicas answered to trust the union of seqs.
func (q *QuorumStore) listRun(op, run string) (runListing, error) {
	n := len(q.replicas)
	l := runListing{infos: make([][]Info, n), listed: make([]bool, n)}
	seen := make(map[uint64]bool)
	errs := make([]error, 0, n)
	for i := 0; i < n; i++ {
		_, err := q.replicaOp(i, run, func(s Store) error {
			var ierr error
			l.infos[i], ierr = ListInfo(s, run)
			return ierr
		})
		if err != nil {
			errs = append(errs, err)
			l.unlisted++
			continue
		}
		l.listed[i] = true
		for _, info := range l.infos[i] {
			seen[info.Seq] = true
		}
	}
	if got := n - l.unlisted; got < q.r {
		q.mu.Lock()
		q.stats.QuorumFailures++
		q.mu.Unlock()
		return l, quorumErr(op, run, 0, got, q.r, errs)
	}
	l.seqs = make([]uint64, 0, len(seen))
	for sq := range seen {
		l.seqs = append(l.seqs, sq)
	}
	sort.Slice(l.seqs, func(a, b int) bool { return l.seqs[a] < l.seqs[b] })
	return l, nil
}

// copyOf returns replica i's listing entry for seq; ok is false when
// the replica's listing lacks seq or failed.
func (l *runListing) copyOf(i int, seq uint64) (Info, bool) {
	infos := l.infos[i]
	k := sort.Search(len(infos), func(j int) bool { return infos[j].Seq >= seq })
	if k < len(infos) && infos[k].Seq == seq {
		return infos[k], true
	}
	return Info{}, false
}

// agreed returns every listed replica as one group when all of them
// show seq with the same known digest.
func (l *runListing) agreed(seq uint64) (copyGroup, bool) {
	var g copyGroup
	for i, listed := range l.listed {
		if !listed {
			continue
		}
		info, has := l.copyOf(i, seq)
		if !has || !info.Known() || (len(g.members) > 0 && info.Sum != g.sum) {
			return copyGroup{}, false
		}
		g.members = append(g.members, i)
		g.sum = info.Sum
	}
	return g, len(g.members) > 0
}

// copyGroup is a set of replicas whose listings show the same bytes for
// one seq, so a probe of any member is a verdict on all of them.
type copyGroup struct {
	members []int
	sum     Sum // zero when unknown; such a group has one member
}

// groups partitions seq's copies by digest, ordered by each group's
// lowest member. A copy with an unknown digest, and a replica whose
// listing failed, forms a group of its own; a replica whose listing
// lacks seq holds no copy and joins no group.
func (l *runListing) groups(seq uint64) []copyGroup {
	var gs []copyGroup
	for i, listed := range l.listed {
		var sum Sum
		if listed {
			info, has := l.copyOf(i, seq)
			if !has {
				continue
			}
			sum = info.Sum
		}
		joined := false
		for g := range gs {
			if sum != (Sum{}) && gs[g].sum == sum {
				gs[g].members = append(gs[g].members, i)
				joined = true
				break
			}
		}
		if !joined {
			gs = append(gs, copyGroup{members: []int{i}, sum: sum})
		}
	}
	return gs
}

// isVerified reports whether a codec load has already proven the copy
// of (run, seq) with digest sum clean.
func (q *QuorumStore) isVerified(run string, seq uint64, sum Sum) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	v, ok := q.verified[run][seq]
	return ok && v == sum
}

// markVerified records sum as the proven-clean digest of (run, seq).
// An unknown digest proves nothing about other copies and is not
// recorded.
func (q *QuorumStore) markVerified(run string, seq uint64, sum Sum) {
	if sum == (Sum{}) {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	m := q.verified[run]
	if m == nil {
		m = make(map[uint64]Sum)
		q.verified[run] = m
	}
	m[seq] = sum
}

// probeGroup loads seq through the codec from the group's members in
// ascending order until one answers: a payload (recorded as verified)
// or ErrCorrupt is the group's verdict; a timeout, a miss or any other
// error moves on to the next member. The last such error is returned
// when no member answered.
func (q *QuorumStore) probeGroup(g copyGroup, run string, seq uint64, c *readCost) ([]byte, error) {
	var err error
	for _, i := range g.members {
		var payload []byte
		payload, _, err = q.readReplica(i, run, seq, c)
		if err == nil {
			q.markVerified(run, seq, g.sum)
			return payload, nil
		}
		if errors.Is(err, ErrCorrupt) {
			return nil, err
		}
	}
	return nil, err
}

// SyncRun runs one deterministic anti-entropy pass over run: list every
// replica's key digests, take the union of sequence numbers, and bring
// every reachable replica to the canonical payload of each. Sequences
// are visited in ascending order and replicas in ascending index, so the
// pass is bit-reproducible; it never advances the virtual clock beyond
// what its own store operations charge and draws no randomness of its
// own, which keeps executor-driven passes invisible to the journal.
//
// A seq whose listed replicas all show one digest is in sync: when an
// earlier load verified that digest it costs no load at all, otherwise
// one codec load from the lowest listed replica that answers verifies
// it (identical corruption everywhere counts as a load failure). Any
// other seq — divergent, missing somewhere, or with unknown digests —
// establishes its canonical payload via a quorum Load and copies it to
// every listed replica that is missing, corrupt, or byte-divergent. A
// pass over a converged run therefore loads only what changed since
// the last pass.
//
// After a partition heals, repeated passes converge all N replicas to
// bit-identical contents without depending on read traffic — this is
// the background half of repair, complementing the read path's quorum
// repair. The returned error (nil when the pass fully converged) wraps
// a representative cause; the report is always meaningful.
func (q *QuorumStore) SyncRun(run string) (SyncReport, error) {
	if err := validRun(run); err != nil {
		return SyncReport{}, err
	}
	l, err := q.listRun("sync", run)
	rep := SyncReport{Unlisted: l.unlisted}
	if err != nil {
		return rep, err
	}
	rep.Seqs = len(l.seqs)

	var c readCost
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, sq := range l.seqs {
		if g, ok := l.agreed(sq); ok {
			var err error
			if !q.isVerified(run, sq, g.sum) {
				_, err = q.probeGroup(g, run, sq, &c)
			}
			if err == nil {
				rep.InSync += len(g.members)
				continue
			}
			if errors.Is(err, ErrCorrupt) {
				rep.LoadFailures++
				fail(err)
				continue
			}
			// No member answered the probe: settle the seq the long way.
		}
		canonical, err := q.load(run, sq, &c)
		if err != nil {
			rep.LoadFailures++
			fail(err)
			continue
		}
		for i, listed := range l.listed {
			if !listed {
				// The replica could not even list; its copy state is
				// unknown and a write would likely fail the same way.
				continue
			}
			cur, _, lerr := q.readReplica(i, run, sq, &c)
			if lerr == nil && bytes.Equal(cur, canonical) {
				rep.InSync++
				continue
			}
			if _, werr := q.replicaOp(i, run, func(s Store) error { return s.Save(run, sq, canonical) }); werr != nil {
				rep.CopyFailures++
				fail(werr)
				continue
			}
			rep.Copied++
			q.mu.Lock()
			q.stats.Repairs++
			q.mu.Unlock()
		}
	}
	rep.Copied += c.repairs
	rep.Probes, rep.BytesRead = c.probes, c.bytes
	if rep.Converged() {
		return rep, nil
	}
	if firstErr == nil && rep.Unlisted > 0 {
		firstErr = fmt.Errorf("%d replicas unreachable for listing", rep.Unlisted)
	}
	return rep, fmt.Errorf("store: sync %s: %d/%d seqs unresolved, %d copies failed, %d replicas unlisted: %w",
		run, rep.LoadFailures, rep.Seqs, rep.CopyFailures, rep.Unlisted, firstErr)
}

// ScrubRun walks every (run, seq) key and repairs the replica copies
// the Checked codec rejects (ErrCorrupt) by overwriting them with the
// payload a clean quorum agrees on. Copies are grouped by listed
// digest, and one member per group is probed through the codec — the
// next member if that probe times out — with the verdict applying to
// the whole group; a group whose digest an earlier load verified needs
// no probe. The repair source is the most common clean payload,
// counted per replica, requiring at least R clean replicas — a read
// quorum's worth of agreement — so a scrub can repair up to N−R
// corrupt copies of one key (with W+R > N this bounds the classic N−W
// stragglers plus any rot on top). Fewer clean copies than R is a typed
// loud failure (ErrUnrepairable): no quorum vouches for any candidate,
// and guessing could overwrite the only good bytes.
//
// Like SyncRun the walk is deterministic: ascending seq, ascending
// replica index, no goroutines, no wall clock.
func (q *QuorumStore) ScrubRun(run string) (ScrubReport, error) {
	if err := validRun(run); err != nil {
		return ScrubReport{}, err
	}
	var rep ScrubReport
	l, err := q.listRun("scrub", run)
	if err != nil {
		return rep, err
	}
	rep.Seqs = len(l.seqs)

	var c readCost
	var firstErr error
	for _, sq := range l.seqs {
		rep.Checked += len(q.replicas)
		var clean []reply
		var corrupt []int
		var trusted []copyGroup
		for _, g := range l.groups(sq) {
			if q.isVerified(run, sq, g.sum) {
				trusted = append(trusted, g)
				continue
			}
			payload, err := q.probeGroup(g, run, sq, &c)
			switch {
			case err == nil:
				clean = g.replies(clean, payload)
			case errors.Is(err, ErrCorrupt):
				corrupt = append(corrupt, g.members...)
			}
			// Missing or unreachable copies are SyncRun's department;
			// the scrubber only chases rot.
		}
		if len(corrupt) == 0 {
			continue
		}
		// A repair weighs every clean copy, so the verified groups'
		// payloads are loaded now.
		for _, g := range trusted {
			if payload, err := q.probeGroup(g, run, sq, &c); err == nil {
				clean = g.replies(clean, payload)
			}
		}
		sort.Ints(corrupt)
		rep.Corrupt += len(corrupt)
		if len(clean) < q.r {
			rep.Unrepairable++
			if firstErr == nil {
				firstErr = fmt.Errorf("store: scrub %s/%d: %d corrupt replicas, only %d clean (need %d): %w",
					run, sq, len(corrupt), len(clean), q.r, ErrUnrepairable)
			}
			continue
		}
		winner := scrubWinner(clean)
		for _, i := range corrupt {
			if _, werr := q.replicaOp(i, run, func(s Store) error { return s.Save(run, sq, winner) }); werr != nil {
				rep.CopyFailures++
				if firstErr == nil {
					firstErr = werr
				}
				continue
			}
			rep.Repaired++
			q.mu.Lock()
			q.stats.Repairs++
			q.mu.Unlock()
		}
	}
	rep.Probes, rep.BytesRead = c.probes, c.bytes
	if rep.Unrepairable == 0 && rep.CopyFailures == 0 {
		return rep, nil
	}
	return rep, fmt.Errorf("store: scrub %s: %d/%d seqs unrepairable, %d repair writes failed: %w",
		run, rep.Unrepairable, rep.Seqs, rep.CopyFailures, firstErr)
}

// replies appends one clean reply per group member, all carrying the
// group's payload.
func (g copyGroup) replies(dst []reply, payload []byte) []reply {
	for _, i := range g.members {
		dst = append(dst, reply{idx: i, payload: payload})
	}
	return dst
}

// scrubWinner picks the repair source among clean replies: the most
// common payload byte-string, ties broken toward the one whose lowest
// holding replica index is smallest, so the choice is deterministic.
func scrubWinner(clean []reply) []byte {
	counts := make(map[string]int, len(clean))
	lowest := make(map[string]int, len(clean))
	for _, rp := range clean {
		key := string(rp.payload)
		counts[key]++
		if cur, ok := lowest[key]; !ok || rp.idx < cur {
			lowest[key] = rp.idx
		}
	}
	// Map iteration order is random, but the (count desc, lowest-index
	// asc) order is strict — lowest indices are unique per key — so the
	// winner is iteration-order independent.
	best, have := "", false
	for key := range counts {
		if !have || counts[key] > counts[best] || (counts[key] == counts[best] && lowest[key] < lowest[best]) {
			best, have = key, true
		}
	}
	return []byte(best)
}

var (
	_ RunSyncer   = (*QuorumStore)(nil)
	_ RunScrubber = (*QuorumStore)(nil)
)
