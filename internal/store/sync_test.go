package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"testing"

	"repro/internal/netsim"
)

// replicasIdentical asserts every replica mem holds bit-identical
// contents for run: same seq sets, same raw (sealed) bytes.
func replicasIdentical(t *testing.T, mems []*MemStore, run string) {
	t.Helper()
	ref, err := mems[0].List(run)
	if err != nil {
		t.Fatalf("replica 0 List: %v", err)
	}
	for i := 1; i < len(mems); i++ {
		seqs, err := mems[i].List(run)
		if err != nil {
			t.Fatalf("replica %d List: %v", i, err)
		}
		if fmt.Sprint(seqs) != fmt.Sprint(ref) {
			t.Fatalf("replica %d seqs %v != replica 0 seqs %v", i, seqs, ref)
		}
	}
	for _, sq := range ref {
		want, err := mems[0].Load(run, sq)
		if err != nil {
			t.Fatalf("replica 0 Load %d: %v", sq, err)
		}
		for i := 1; i < len(mems); i++ {
			got, err := mems[i].Load(run, sq)
			if err != nil {
				t.Fatalf("replica %d Load %d: %v", i, sq, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("replica %d seq %d diverges from replica 0", i, sq)
			}
		}
	}
}

// TestSyncRunConvergesAfterHeal pins the anti-entropy headline: a
// replica isolated during the writes converges bit-identically after
// the partition heals, with no read traffic involved, and a second
// pass is a no-op.
func TestSyncRunConvergesAfterHeal(t *testing.T) {
	netCfg := netsim.Config{
		Seed:       11,
		Latency:    0.05,
		Partitions: []netsim.Window{{Start: 0, End: 10, Isolated: []string{"s0"}}},
	}
	q, mems := quorumStack(netCfg, QuorumConfig{W: 2, R: 2}, 3, FaultPlan{})
	now := 5.0
	q.BindClock("r", func() float64 { return now })
	for seq := uint64(1); seq <= 4; seq++ {
		if err := q.Save("r", seq, []byte(fmt.Sprintf("payload-%d", seq))); err != nil {
			t.Fatalf("Save %d: %v", seq, err)
		}
	}
	if seqs, _ := mems[0].List("r"); len(seqs) != 0 {
		t.Fatalf("isolated replica saw writes: %v", seqs)
	}

	now = 20 // healed
	rep, err := q.SyncRun("r")
	if err != nil {
		t.Fatalf("SyncRun after heal: %v (%+v)", err, rep)
	}
	if rep.Seqs != 4 || rep.Copied != 4 || rep.InSync != 12 || !rep.Converged() {
		t.Fatalf("SyncRun report = %+v, want 4 seqs, 4 copies to the healed replica, 12 verified in sync", rep)
	}
	replicasIdentical(t, mems, "r")

	again, err := q.SyncRun("r")
	if err != nil || again.Copied != 0 || again.InSync != 12 {
		t.Fatalf("second SyncRun = %+v, %v; want pure no-op", again, err)
	}
}

// TestSyncRunRepairsDivergentContent: a replica holding a DIFFERENT
// validly-sealed payload (e.g. a write that landed from a fenced-off
// era) is overwritten with the quorum payload.
func TestSyncRunRepairsDivergentContent(t *testing.T) {
	q, mems := quorumStack(netsim.Config{Seed: 12, Latency: 0.05}, QuorumConfig{W: 2, R: 2}, 3, FaultPlan{})
	if err := q.Save("r", 1, []byte("canonical")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// Plant a valid divergent frame directly under replica 2's codec.
	if err := Checked(mems[2]).Save("r", 1, []byte("divergent")); err != nil {
		t.Fatalf("planting divergent frame: %v", err)
	}
	rep, err := q.SyncRun("r")
	if err != nil || rep.Copied != 1 {
		t.Fatalf("SyncRun = %+v, %v; want exactly the divergent replica copied", rep, err)
	}
	replicasIdentical(t, mems, "r")
	if got, _ := Checked(mems[2]).Load("r", 1); string(got) != "canonical" {
		t.Fatalf("replica 2 payload = %q, want canonical", got)
	}
}

// TestSyncRunDuringPartition: with a replica still cut off, the pass
// reports itself unconverged (typed for retry) but repairs what it can
// reach.
func TestSyncRunDuringPartition(t *testing.T) {
	netCfg := netsim.Config{
		Seed:       13,
		Latency:    0.05,
		Partitions: []netsim.Window{{Start: 10, End: 30, Isolated: []string{"s2"}}},
	}
	q, mems := quorumStack(netCfg, QuorumConfig{W: 2, R: 2}, 3, FaultPlan{})
	now := 0.0
	q.BindClock("r", func() float64 { return now })
	if err := q.Save("r", 1, []byte("x")); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// Replica 1 loses its copy; replica 2 is partitioned off.
	if err := mems[1].Delete("r", 1); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	now = 15
	rep, err := q.SyncRun("r")
	if err == nil || rep.Converged() {
		t.Fatalf("SyncRun mid-partition = %+v, %v; want unconverged with error", rep, err)
	}
	if rep.Unlisted != 1 || rep.Copied != 1 {
		t.Fatalf("SyncRun report = %+v; want the reachable stale replica repaired, one unlisted", rep)
	}
	if _, err := Checked(mems[1]).Load("r", 1); err != nil {
		t.Fatalf("reachable replica not repaired: %v", err)
	}
	// Fewer listings than R: the usual quorum error shape.
	netCfg.Partitions = []netsim.Window{{Start: 0, End: 100, Isolated: []string{"s1", "s2"}}}
	q2, _ := quorumStack(netCfg, QuorumConfig{W: 2, R: 2}, 3, FaultPlan{})
	if _, err := q2.SyncRun("r"); !errors.Is(err, ErrQuorum) {
		t.Fatalf("SyncRun with R unreachable = %v, want ErrQuorum", err)
	}
}

// corruptReplica tears replica i's sealed frame for (run, seq) so its
// Checked layer reports ErrCorrupt.
func corruptReplica(t *testing.T, mems []*MemStore, i int, run string, seq uint64) {
	t.Helper()
	raw, err := mems[i].Load(run, seq)
	if err != nil {
		t.Fatalf("loading frame to corrupt: %v", err)
	}
	if err := mems[i].Save(run, seq, raw[:len(raw)-3]); err != nil {
		t.Fatalf("tearing frame: %v", err)
	}
}

// TestScrubRepairBound pins the scrub quorum math on N=3, R=2: up to
// N−R = 1 corrupt replica per key is repaired from the clean quorum;
// beyond that the scrub fails loudly with ErrUnrepairable and leaves
// the survivors untouched.
func TestScrubRepairBound(t *testing.T) {
	q, mems := quorumStack(netsim.Config{Seed: 14, Latency: 0.05}, QuorumConfig{W: 2, R: 2}, 3, FaultPlan{})
	for seq := uint64(1); seq <= 3; seq++ {
		if err := q.Save("r", seq, []byte(fmt.Sprintf("payload-%d", seq))); err != nil {
			t.Fatalf("Save %d: %v", seq, err)
		}
	}

	// k=1 ≤ N−R: repairable.
	corruptReplica(t, mems, 1, "r", 2)
	rep, err := q.ScrubRun("r")
	if err != nil {
		t.Fatalf("ScrubRun with one corrupt replica: %v (%+v)", err, rep)
	}
	if rep.Seqs != 3 || rep.Checked != 9 || rep.Corrupt != 1 || rep.Repaired != 1 || rep.Unrepairable != 0 {
		t.Fatalf("ScrubRun report = %+v", rep)
	}
	replicasIdentical(t, mems, "r")

	// k=2 > N−R: no clean quorum for seq 3 — typed loud failure.
	corruptReplica(t, mems, 0, "r", 3)
	corruptReplica(t, mems, 1, "r", 3)
	rep, err = q.ScrubRun("r")
	if !errors.Is(err, ErrUnrepairable) {
		t.Fatalf("ScrubRun with two corrupt replicas = %v, want ErrUnrepairable", err)
	}
	if rep.Unrepairable != 1 || rep.Repaired != 0 {
		t.Fatalf("ScrubRun report = %+v; want one unrepairable seq, nothing blessed", rep)
	}
	// The lone clean copy was not overwritten.
	if got, lerr := Checked(mems[2]).Load("r", 3); lerr != nil || string(got) != "payload-3" {
		t.Fatalf("clean survivor = %q, %v; must be untouched", got, lerr)
	}

	// A clean pass is a no-op.
	clean, err := q.ScrubRun("nope")
	if err != nil || clean.Seqs != 0 {
		t.Fatalf("ScrubRun on empty run = %+v, %v", clean, err)
	}
}

// TestScrubWinnerDeterminism: among clean copies the repair source is
// the most common payload, ties toward the lowest replica index.
func TestScrubWinnerDeterminism(t *testing.T) {
	mk := func(idx int, payload string) reply { return reply{idx: idx, payload: []byte(payload)} }
	if got := scrubWinner([]reply{mk(0, "a"), mk(1, "b"), mk(2, "b")}); string(got) != "b" {
		t.Fatalf("majority winner = %q, want b", got)
	}
	if got := scrubWinner([]reply{mk(2, "a"), mk(1, "b")}); string(got) != "b" {
		t.Fatalf("tie winner = %q, want b (lowest index)", got)
	}
	if got := scrubWinner([]reply{mk(0, "a")}); string(got) != "a" {
		t.Fatalf("single winner = %q, want a", got)
	}
}

func TestFindSyncerAndScrubberWalkStacks(t *testing.T) {
	q, _ := quorumStack(netsim.Config{Seed: 15, Latency: 0.05}, QuorumConfig{}, 3, FaultPlan{})
	ledger := NewQuotaLedger(Quota{}, func(run string) string { return run })
	var outer Store = NewQuotaStore(ledger, NewLeaseStore(q, LeaseConfig{Holder: "a"}))
	if sy, ok := FindSyncer(outer); !ok || sy != RunSyncer(q) {
		t.Fatalf("FindSyncer through quota+lease = %v, %v", sy, ok)
	}
	if sc, ok := FindScrubber(outer); !ok || sc != RunScrubber(q) {
		t.Fatalf("FindScrubber through quota+lease = %v, %v", sc, ok)
	}
	if _, ok := FindSyncer(NewMemStore()); ok {
		t.Fatal("FindSyncer over bare mem must report absent")
	}
}

// saveSeqs writes payload-1 … payload-k for run through the quorum.
func saveSeqs(t *testing.T, q *QuorumStore, run string, k int) {
	t.Helper()
	for seq := uint64(1); seq <= uint64(k); seq++ {
		if err := q.Save(run, seq, []byte(fmt.Sprintf("%s-payload-%d", run, seq))); err != nil {
			t.Fatalf("Save %s/%d: %v", run, seq, err)
		}
	}
}

// TestSyncRunLoadsOnlyWhatChanged pins the O(divergence) contract: the
// first pass over agreeing replicas verifies each digest with one load,
// a second pass loads nothing, and a later pass loads only the seq a
// new save touched.
func TestSyncRunLoadsOnlyWhatChanged(t *testing.T) {
	q, mems := quorumStack(netsim.Config{Seed: 21, Latency: 0.05}, QuorumConfig{W: 2, R: 2}, 3, FaultPlan{})
	saveSeqs(t, q, "r", 4)

	first, err := q.SyncRun("r")
	if err != nil || !first.Converged() || first.InSync != 12 || first.Probes != 4 || first.BytesRead == 0 {
		t.Fatalf("first SyncRun = %+v, %v; want 12 in sync from one verifying load per seq", first, err)
	}
	again, err := q.SyncRun("r")
	if err != nil || !again.Converged() || again.InSync != 12 || again.Copied != 0 {
		t.Fatalf("second SyncRun = %+v, %v; want a converged no-op", again, err)
	}
	if again.Probes != 0 || again.BytesRead != 0 {
		t.Fatalf("second SyncRun over a converged run loaded %d payloads (%d bytes), want none", again.Probes, again.BytesRead)
	}

	if err := q.Save("r", 5, []byte("r-payload-5")); err != nil {
		t.Fatal(err)
	}
	if err := q.Save("r", 2, []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	third, err := q.SyncRun("r")
	if err != nil || !third.Converged() || third.Probes != 2 || third.InSync != 15 {
		t.Fatalf("third SyncRun = %+v, %v; want two verifying loads (seqs 2 and 5)", third, err)
	}
	replicasIdentical(t, mems, "r")
}

// TestIdenticalCorruptionEverywhere: when every replica holds the same
// corrupt bytes the digests agree, but the verifying load rejects them,
// so sync does not report convergence and scrub fails loudly — also
// after an earlier pass verified the key's clean bytes.
func TestIdenticalCorruptionEverywhere(t *testing.T) {
	q, mems := quorumStack(netsim.Config{Seed: 22, Latency: 0.05}, QuorumConfig{W: 2, R: 2}, 3, FaultPlan{})
	saveSeqs(t, q, "r", 2)
	if rep, err := q.SyncRun("r"); err != nil || !rep.Converged() {
		t.Fatalf("clean SyncRun = %+v, %v", rep, err)
	}
	for i := range mems {
		corruptReplica(t, mems, i, "r", 1)
	}

	rep, err := q.SyncRun("r")
	if err == nil || rep.Converged() || rep.LoadFailures != 1 || rep.Copied != 0 {
		t.Fatalf("SyncRun over identical corruption = %+v, %v; want one load failure, unconverged", rep, err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("SyncRun error = %v, want it to wrap ErrCorrupt", err)
	}
	scrub, err := q.ScrubRun("r")
	if !errors.Is(err, ErrUnrepairable) || scrub.Corrupt != 3 || scrub.Unrepairable != 1 || scrub.Repaired != 0 {
		t.Fatalf("ScrubRun over identical corruption = %+v, %v; want ErrUnrepairable", scrub, err)
	}
}

// TestScrubRepairsBitFlipOnDisk: a file store re-hashes its files at
// every listing, so a byte flipped on disk after a clean scrub changes
// that key's digest, and the next scrub probes exactly the rotten copy
// (plus one load of the verified clean copy as repair source).
func TestScrubRepairsBitFlipOnDisk(t *testing.T) {
	files := make([]*FileStore, 3)
	spec := Stack{W: 2, R: 2}
	for i := range files {
		fs, err := NewFileStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		files[i] = fs
		spec.Bottoms = append(spec.Bottoms, fs)
	}
	st, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	q := st.(*QuorumStore)
	saveSeqs(t, q, "r", 3)
	if rep, err := q.ScrubRun("r"); err != nil || rep.Corrupt != 0 || rep.Probes != 3 {
		t.Fatalf("clean ScrubRun = %+v, %v; want one probe per seq", rep, err)
	}

	before, err := ListInfo(files[1], "r")
	if err != nil {
		t.Fatal(err)
	}
	path := files[1].path("r", 2)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(codecMagic)+12] ^= 0x01 // first payload byte
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	after, err := ListInfo(files[1], "r")
	if err != nil {
		t.Fatal(err)
	}
	for i := range after {
		changed := after[i].Sum != before[i].Sum
		if changed != (after[i].Seq == 2) {
			t.Fatalf("seq %d digest changed = %v after flipping a byte of seq 2", after[i].Seq, changed)
		}
	}

	rep, err := q.ScrubRun("r")
	if err != nil || rep.Corrupt != 1 || rep.Repaired != 1 || rep.Checked != 9 || rep.Probes != 2 {
		t.Fatalf("ScrubRun after bit flip = %+v, %v; want the flipped copy found and repaired with two probes", rep, err)
	}
	fixed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(files[0].path("r", 2))
	if err != nil || !bytes.Equal(fixed, good) {
		t.Fatalf("repaired file differs from the clean replica (%v)", err)
	}
}

// blindReplica hides its inner store's capabilities, so the quorum sees
// unknown digests for every key.
type blindReplica struct{ Store }

// TestSyncRunWithoutInfoLister: replicas that cannot list digests take
// the full path on every pass, and still converge.
func TestSyncRunWithoutInfoLister(t *testing.T) {
	mems := make([]*MemStore, 3)
	reps := make([]Store, 3)
	for i := range mems {
		mems[i] = NewMemStore()
		reps[i] = blindReplica{Checked(mems[i])}
	}
	q, err := NewQuorumStore(reps, QuorumConfig{W: 2, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	saveSeqs(t, q, "r", 3)
	infos, err := ListInfo(reps[0], "r")
	if err != nil || len(infos) != 3 || infos[0].Seq != 1 || infos[0].Known() {
		t.Fatalf("ListInfo without a lister = %+v, %v; want the listed seqs with unknown digests", infos, err)
	}
	if err := mems[2].Delete("r", 1); err != nil {
		t.Fatal(err)
	}
	if err := Checked(mems[1]).Save("r", 3, []byte("divergent")); err != nil {
		t.Fatal(err)
	}

	rep, err := q.SyncRun("r")
	if err != nil || !rep.Converged() || rep.Seqs != 3 {
		t.Fatalf("SyncRun without digests = %+v, %v; want converged", rep, err)
	}
	replicasIdentical(t, mems, "r")
	again, err := q.SyncRun("r")
	if err != nil || !again.Converged() || again.Copied != 0 || again.InSync != 9 || again.Probes == 0 {
		t.Fatalf("second SyncRun without digests = %+v, %v; want the full path, converged, nothing copied", again, err)
	}
}

// repairOtherRun is a replica decorator that, the first time run "a"
// loads a checkpoint from it, reads run "b" through the quorum — a
// concurrent reader of another run whose read repair lands while a's
// sync pass is in flight.
type repairOtherRun struct {
	Store
	q     *QuorumStore
	fired bool
}

func (r *repairOtherRun) Load(run string, seq uint64) ([]byte, error) {
	if run == "a" && !r.fired {
		r.fired = true
		if _, err := r.q.Load("b", 1); err != nil {
			return nil, err
		}
	}
	return r.Store.Load(run, seq)
}

func (r *repairOtherRun) Unwrap() Store { return r.Store }

// TestSyncCopiedExcludesOtherRunsRepairs: a pass counts only the copies
// its own reads and copies wrote, never a read repair on another run of
// the same QuorumStore.
func TestSyncCopiedExcludesOtherRunsRepairs(t *testing.T) {
	mems := make([]*MemStore, 3)
	reps := make([]Store, 3)
	for i := range mems {
		mems[i] = NewMemStore()
		reps[i] = Checked(mems[i])
	}
	hook := &repairOtherRun{Store: reps[0]}
	reps[0] = hook
	q, err := NewQuorumStore(reps, QuorumConfig{W: 2, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	hook.q = q
	saveSeqs(t, q, "a", 1)
	saveSeqs(t, q, "b", 1)
	// b is stale on replica 0, so reading it repairs replica 0; a is
	// missing on replica 2, so a's pass quorum-loads it and copies once.
	if err := mems[0].Delete("b", 1); err != nil {
		t.Fatal(err)
	}
	if err := mems[2].Delete("a", 1); err != nil {
		t.Fatal(err)
	}

	before := q.Stats().Repairs
	rep, err := q.SyncRun("a")
	if err != nil || !rep.Converged() {
		t.Fatalf("SyncRun(a) = %+v, %v", rep, err)
	}
	if !hook.fired || q.Stats().Repairs-before != 2 {
		t.Fatalf("drill did not run: fired=%v, quorum repairs %d (want a's copy and b's read repair)", hook.fired, q.Stats().Repairs-before)
	}
	if rep.Copied != 1 {
		t.Fatalf("SyncRun(a).Copied = %d, want 1: b's read repair must not count", rep.Copied)
	}
	replicasIdentical(t, mems, "a")
	replicasIdentical(t, mems, "b")
}
