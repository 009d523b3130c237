package exec

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/expectation"
	"repro/internal/failure"
	"repro/internal/rng"
	"repro/internal/store"
)

// everyTaskChain is an n-task chain with a checkpoint after every task,
// so commit s persists seq s+1 and the chain shapes below are easy to
// name.
func everyTaskChain(tb testing.TB, n int) *Workload {
	tb.Helper()
	m, err := expectation.NewModel(0.05, 1)
	if err != nil {
		tb.Fatal(err)
	}
	cp := &core.ChainProblem{InitialRecovery: 0.3, Model: m}
	ck := make([]bool, n)
	for i := range ck {
		cp.Weights = append(cp.Weights, 1+float64(i%5))
		cp.Ckpt = append(cp.Ckpt, 0.25)
		cp.Rec = append(cp.Rec, 0.2)
		ck[i] = true
	}
	w, err := NewChainWorkload(cp, ck)
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

func chainSource() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.05}, 7, 1) }

// countingStore counts payload bytes saved and loads per seq.
type countingStore struct {
	store.Store
	written int
	loads   map[uint64]int
}

func newCountingStore(inner store.Store) *countingStore {
	return &countingStore{Store: inner, loads: map[uint64]int{}}
}

func (c *countingStore) Save(run string, seq uint64, payload []byte) error {
	c.written += len(payload)
	return c.Store.Save(run, seq, payload)
}

func (c *countingStore) Load(run string, seq uint64) ([]byte, error) {
	c.loads[seq]++
	return c.Store.Load(run, seq)
}

func (c *countingStore) Unwrap() store.Store { return c.Store }

// chainFixture is a 40-task run killed right after its 23rd save, next
// to the uninterrupted reference run. Seq 23's chain is 23 → 22 → 20 →
// 16; seq 19's is 19 → 18 → 16.
type chainFixture struct {
	w      *Workload
	ref    *Result
	refMem *store.MemStore // the reference run's sealed payloads
	mem    *store.MemStore // the killed run's sealed payloads
}

func newChainFixture(t *testing.T, downtime float64) *chainFixture {
	t.Helper()
	f := &chainFixture{w: everyTaskChain(t, 40), refMem: store.NewMemStore(), mem: store.NewMemStore()}
	var err error
	if f.ref, err = Execute(f.w, chainSource(), Options{Store: store.Checked(f.refMem), Downtime: downtime}); err != nil {
		t.Fatal(err)
	}
	_, err = Execute(f.w, chainSource(), Options{Store: store.Checked(f.mem), Downtime: downtime, CrashAfterSaves: 23})
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("kill after 23 saves: %v", err)
	}
	return f
}

// payload loads and decodes one of the killed run's checkpoints.
func (f *chainFixture) payload(t *testing.T, seq uint64) *execState {
	t.Helper()
	data, err := store.Checked(f.mem).Load("run", seq)
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// resume finishes the killed run on st and checks that it fell back to
// seq 19 and reproduced the reference journal.
func (f *chainFixture) resume(t *testing.T, st store.Store) *Result {
	t.Helper()
	res, err := Execute(f.w, chainSource(), Options{Store: st, Downtime: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed || res.ResumeSeq != 19 {
		t.Fatalf("resumed=%v from seq %d, want the fallback to seq 19", res.Resumed, res.ResumeSeq)
	}
	if !res.Journal.Equal(f.ref.Journal) {
		t.Fatalf("resumed journal differs from the reference (%d vs %d events)", len(res.Journal), len(f.ref.Journal))
	}
	return res
}

// TestChainParentsAreFenwick pins the parent rule on an undisturbed
// store: checkpoint k's parent is k&(k−1) (none for a power of two), its
// delta starts where the parent's journal ends, and a resume from k
// rebuilds the journal from popcount(k) loads.
func TestChainParentsAreFenwick(t *testing.T) {
	f := newChainFixture(t, 1)
	for seq := uint64(1); seq <= 23; seq++ {
		st := f.payload(t, seq)
		if st.parentSeq != seq&(seq-1) {
			t.Fatalf("seq %d: parent %d, want %d", seq, st.parentSeq, seq&(seq-1))
		}
		if st.parentSeq != 0 && st.parentEvents != f.payload(t, st.parentSeq).events {
			t.Fatalf("seq %d: parentEvents %d != parent's events", seq, st.parentEvents)
		}
	}
	cs := newCountingStore(store.Checked(f.mem))
	res, err := Execute(f.w, chainSource(), Options{Store: cs, Downtime: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumeSeq != 23 || res.ResumeLoads != 4 || res.RestoredEvents != int(f.payload(t, 23).events) {
		t.Fatalf("resume from %d: %d loads, %d events restored; want seq 23, 4 loads (23, 22, 20, 16)",
			res.ResumeSeq, res.ResumeLoads, res.RestoredEvents)
	}
	if !res.Journal.Equal(f.ref.Journal) {
		t.Fatal("resumed journal differs from the reference")
	}
}

// TestChainLostAncestorFallsBack deletes seq 20, an ancestor of
// candidates 21–23: the resume falls back to seq 19, whose chain
// avoids it, loads every seq at most once, and the finished run's
// payloads are byte-identical to the uninterrupted run's.
func TestChainLostAncestorFallsBack(t *testing.T) {
	f := newChainFixture(t, 1)
	if err := f.mem.Delete("run", 20); err != nil {
		t.Fatal(err)
	}
	cs := newCountingStore(store.Checked(f.mem))
	res := f.resume(t, cs)
	// 23, 22, 21 (each ending at the unlisted 20), then 19, 18, 16.
	if res.ResumeLoads != 6 {
		t.Fatalf("ResumeLoads = %d, want 6", res.ResumeLoads)
	}
	total := 0
	for seq, n := range cs.loads {
		if n != 1 {
			t.Fatalf("seq %d loaded %d times in one resume", seq, n)
		}
		total += n
	}
	if total != res.ResumeLoads {
		t.Fatalf("store saw %d loads, ResumeLoads = %d", total, res.ResumeLoads)
	}
	for seq := uint64(1); seq <= 40; seq++ {
		got, err := f.mem.Load("run", seq)
		if err != nil {
			t.Fatal(err)
		}
		want, err := f.refMem.Load("run", seq)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seq %d: resumed run wrote different bytes than the uninterrupted run", seq)
		}
	}
}

// TestChainCorruptAncestorFallsBack flips one byte of seq 20's sealed
// frame: the codec rejects it and the resume falls back as for a loss.
func TestChainCorruptAncestorFallsBack(t *testing.T) {
	f := newChainFixture(t, 1)
	raw, err := f.mem.Load("run", 20)
	if err != nil {
		t.Fatal(err)
	}
	raw = append([]byte(nil), raw...)
	raw[len(raw)/2] ^= 0x40
	if err := f.mem.Save("run", 20, raw); err != nil {
		t.Fatal(err)
	}
	f.resume(t, store.Checked(f.mem))
}

// TestChainForeignHistoryRejectedByDigest replaces seq 20 with the seq
// 20 of a run with another downtime: same fingerprint, same event
// counts, different event times. Only the digest tells them apart.
func TestChainForeignHistoryRejectedByDigest(t *testing.T) {
	f := newChainFixture(t, 1)
	other := newChainFixture(t, 2)
	foreign, genuine := other.payload(t, 20), f.payload(t, 20)
	if foreign.fp != genuine.fp || foreign.events != genuine.events || foreign.parentEvents != genuine.parentEvents {
		t.Fatal("fixture: the foreign seq 20 must match the genuine one's fingerprint and event counts")
	}
	if foreign.digest == genuine.digest {
		t.Fatal("fixture: the foreign history must differ")
	}
	raw, err := other.mem.Load("run", 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.mem.Save("run", 20, raw); err != nil {
		t.Fatal(err)
	}
	f.resume(t, store.Checked(f.mem))
}

// TestChainForeignFingerprintIsLoud replaces seq 20 with another
// source's checkpoint: walking seq 23's chain reaches it and the resume
// fails with ErrFingerprint instead of falling back.
func TestChainForeignFingerprintIsLoud(t *testing.T) {
	f := newChainFixture(t, 1)
	otherMem := store.NewMemStore()
	src := NewKeyedSource(failure.Exponential{Lambda: 0.05}, 7, 2)
	if _, err := Execute(f.w, src, Options{Store: store.Checked(otherMem), Downtime: 1}); err != nil {
		t.Fatal(err)
	}
	raw, err := otherMem.Load("run", 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.mem.Save("run", 20, raw); err != nil {
		t.Fatal(err)
	}
	_, err = Execute(f.w, chainSource(), Options{Store: store.Checked(f.mem), Downtime: 1})
	if !errors.Is(err, ErrFingerprint) {
		t.Fatalf("err = %v, want ErrFingerprint", err)
	}
}

// TestChainSkipsGiveUps fails every save of seq 6: seq 7's parent,
// 7&6 = 6, was never persisted, so the parent pointer skips to seq 4,
// and a resume from seq 7 still rebuilds the reference journal.
func TestChainSkipsGiveUps(t *testing.T) {
	w := everyTaskChain(t, 12)
	mem := store.NewMemStore()
	opts := func(crashSaves int) Options {
		return Options{Store: store.Checked(seqFailStore{mem, 6}), Downtime: 1, CrashAfterSaves: crashSaves}
	}
	ref, err := Execute(w, chainSource(), Options{Store: store.Checked(seqFailStore{store.NewMemStore(), 6}), Downtime: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ref.GiveUps != 1 {
		t.Fatalf("reference gave up %d saves, want 1", ref.GiveUps)
	}
	// Saves 1–5 and 7 land: the sixth landed save is seq 7.
	if _, err := Execute(w, chainSource(), opts(6)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("kill after 6 saves: %v", err)
	}
	data, err := store.Checked(mem).Load("run", 7)
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	if st.parentSeq != 4 {
		t.Fatalf("seq 7's parent = %d, want 4 (seq 6 was given up)", st.parentSeq)
	}
	res, err := Execute(w, chainSource(), opts(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumeSeq != 7 || res.ResumeLoads != 2 {
		t.Fatalf("resumed from seq %d with %d loads, want seq 7 with 2 (7, 4)", res.ResumeSeq, res.ResumeLoads)
	}
	if !res.Journal.Equal(ref.Journal) {
		t.Fatal("resumed journal differs from the reference")
	}
}

// TestCheckpointBytesGrowNLogN runs the 1,024-task DP-planned chain the
// benchmark trajectory uses through a store and bounds the payload
// bytes written: payloads carrying the whole journal prefix wrote about
// 60 MB over its 965 saves, the chained deltas stay under 2 MB.
func TestCheckpointBytesGrowNLogN(t *testing.T) {
	g, err := dag.Chain(1024, dag.DefaultWeights(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	m, err := expectation.NewModel(0.05, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := core.NewChainProblem(g, m, 0)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := core.SolveChainDP(cp)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewChainWorkload(cp, dp.CheckpointAfter)
	if err != nil {
		t.Fatal(err)
	}
	cs := newCountingStore(store.Checked(store.NewMemStore()))
	res, err := Execute(w, NewKeyedSource(failure.Exponential{Lambda: 0.05}, 6, 1), Options{Store: cs, Downtime: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Saves < 900 {
		t.Fatalf("only %d saves; the bound below assumes ~1,000 checkpoints", res.Saves)
	}
	if cs.written >= 2<<20 {
		t.Fatalf("wrote %d payload bytes over %d saves, want < 2 MB", cs.written, res.Saves)
	}
}

// FuzzDecodeState holds the decoder the resume trusts to its contract:
// a payload is rejected with errState or errJournal, or it decodes to a
// state that encodeState turns back into the identical bytes. It never
// panics, and the decoded delta is bounded by the input length.
func FuzzDecodeState(f *testing.F) {
	w := everyTaskChain(f, 8)
	mem := store.NewMemStore()
	if _, err := Execute(w, chainSource(), Options{Store: store.Checked(mem), Downtime: 1}); err != nil {
		f.Fatal(err)
	}
	for _, seq := range []uint64{4, 7} { // a root and a mid-chain link
		data, err := store.Checked(mem).Load("run", seq)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:stateHeaderSize])
		for _, off := range []int{0, 4 + 8*29, 4 + 8*31, len(data) - 1} {
			flipped := append([]byte(nil), data...)
			flipped[off] ^= 0x01
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeState(data)
		if err != nil {
			if !errors.Is(err, errState) && !errors.Is(err, errJournal) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if len(st.delta)*eventSize > len(data) {
			t.Fatalf("decoded %d events from %d bytes", len(st.delta), len(data))
		}
		if got := encodeState(st); !bytes.Equal(got, data) {
			t.Fatalf("re-encoding differs:\n got %x\nwant %x", got, data)
		}
	})
}
