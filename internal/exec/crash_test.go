package exec

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/expectation"
	"repro/internal/failure"
	"repro/internal/store"
)

// crashScenario names one (workload, source) pair for the harness.
type crashScenario struct {
	name string
	w    *Workload
	src  func() Source
}

// crashScenarios builds the acceptance matrix: a chain plan and a DAG
// plan under both cost models, each against a keyed exponential source.
func crashScenarios(t *testing.T) []crashScenario {
	t.Helper()
	g, plan := diamondDAG(t)
	var out []crashScenario
	out = append(out, crashScenario{
		name: "chain",
		w:    chainWorkload(t),
		src:  func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.08}, 101, 1) },
	})
	for _, cm := range []core.CostModel{core.LastTaskCosts{R0: 0.5}, core.LiveSetCosts{R0: 0.5}} {
		w, err := NewDAGWorkload(g, plan, cm)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, crashScenario{
			name: "dag/" + cm.Name(),
			w:    w,
			src:  func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.05}, 101, 2) },
		})
	}
	return out
}

// runToCompletion drives the executor through a sequence of injected
// kill points: each invocation, built by opts(kill), crashes at its
// kill point, and the next invocation resumes from whatever the store
// holds. After the kill list is exhausted, a final clean invocation
// completes the run. It returns the final result and the number of
// invocations that actually crashed.
func runToCompletion(t *testing.T, w *Workload, src func() Source, opts func(kill int) Options, kills []int) (*Result, int) {
	t.Helper()
	crashes := 0
	for _, kill := range kills {
		_, err := Execute(w, src(), opts(kill))
		switch {
		case err == nil:
			// The kill point landed past the end of the run; nothing to
			// resume, later kill points would also miss.
			return nil, crashes
		case errors.Is(err, ErrCrashed):
			crashes++
		default:
			t.Fatalf("kill@%d: unexpected error: %v", kill, err)
		}
	}
	res, err := Execute(w, src(), opts(0))
	if err != nil {
		t.Fatalf("final resume: %v", err)
	}
	return res, crashes
}

// TestCrashResumeBitIdenticalJournals is the acceptance property of the
// whole runtime: for chain and DAG plans under both cost models, an
// execution killed at several distinct injected points and resumed each
// time from the durable file store finishes with a journal
// byte-identical to the uninterrupted store-backed run's, and metrics
// identical to the store-less run's.
func TestCrashResumeBitIdenticalJournals(t *testing.T) {
	for _, sc := range crashScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			bare, err := Execute(sc.w, sc.src(), Options{Downtime: 1})
			if err != nil {
				t.Fatal(err)
			}
			fileStore := func() store.Store {
				fs, err := store.NewFileStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				return store.Checked(fs)
			}
			ref, err := Execute(sc.w, sc.src(), Options{RunID: "acceptance", Store: fileStore(), Downtime: 1})
			if err != nil {
				t.Fatal(err)
			}
			n := len(ref.Journal)
			if n < 10 {
				t.Fatalf("reference journal too short (%d events) to place 3 kill points", n)
			}
			// Three strictly increasing kill points inside the run, plus
			// one killing between the final save and completion.
			kills := []int{n / 5, 2 * n / 5, 7 * n / 10, n - 1}
			st := fileStore()
			res, crashes := runToCompletion(t, sc.w, sc.src, func(kill int) Options {
				return Options{RunID: "acceptance", Store: st, Downtime: 1, CrashAfterEvents: kill}
			}, kills)
			if res == nil {
				t.Fatal("kill points missed the run entirely")
			}
			if crashes < 3 {
				t.Fatalf("only %d crashes injected, want ≥ 3", crashes)
			}
			if !res.Resumed {
				t.Fatal("final invocation did not resume from the store")
			}
			if !res.Journal.Equal(ref.Journal) {
				t.Fatalf("resumed journal differs from uninterrupted run:\nresumed %d events, reference %d",
					len(res.Journal), len(ref.Journal))
			}
			if res.Metrics != bare.Metrics {
				t.Fatalf("resumed metrics differ: %+v vs %+v", res.Metrics, bare.Metrics)
			}
		})
	}
}

// TestCrashResumeUnderFaultInjection repeats the acceptance property
// with a hostile store and several kills per run: the hostile drill
// rows inject clean write failures, torn writes (detected by the codec
// on resume), silent loss of old checkpoints and transient read
// failures. Retries absorb what they can; resume falls back past what
// they cannot; the final journal and metrics must still be
// byte-identical to the uninterrupted run's on the same hostile stack.
func TestCrashResumeUnderFaultInjection(t *testing.T) {
	for _, sc := range crashScenarios(t) {
		t.Run(sc.name, func(t *testing.T) {
			for _, d := range hostileDrills(sc) {
				ref, err := Execute(d.w, d.src(), newAdaptiveStack(d).options(0))
				if err != nil {
					t.Fatal(err)
				}
				n := len(ref.Journal)
				kills := []int{n / 6, n / 3, n / 2, 4 * n / 5}
				res, crashes := runToCompletion(t, d.w, d.src, newAdaptiveStack(d).options, kills)
				if res == nil {
					t.Fatalf("%s: kill points missed the run", d.name)
				}
				if crashes < 3 {
					t.Fatalf("%s: only %d crashes", d.name, crashes)
				}
				if !res.Journal.Equal(ref.Journal) {
					t.Fatalf("%s: resumed journal differs from reference", d.name)
				}
				if res.Metrics != ref.Metrics {
					t.Fatalf("%s: metrics differ: %+v vs %+v", d.name, res.Metrics, ref.Metrics)
				}
			}
		})
	}
}

// adaptiveDrill is one degraded-store kill/resume scenario: a workload,
// a fault plan, an optional quota and secondary, a retry policy and
// optionally a replanner. secFailSeq, when set, makes every save of that
// seq to the secondary fail transiently; ladder, when set, replaces the
// default ladder thresholds.
type adaptiveDrill struct {
	name       string
	w          *Workload
	src        func() Source
	plan       store.FaultPlan
	quota      *store.Quota
	secondary  bool
	secFailSeq uint64
	ladder     *AdaptiveOptions
	retry      RetryPolicy
	replanner  func() Replanner
}

// seqFailStore fails every save of one seq with a transient injected
// error and forwards everything else.
type seqFailStore struct {
	store.Store
	seq uint64
}

func (s seqFailStore) Save(run string, seq uint64, payload []byte) error {
	if seq == s.seq {
		return store.ErrInjectedWrite
	}
	return s.Store.Save(run, seq, payload)
}

func (s seqFailStore) Unwrap() store.Store { return s.Store }

// adaptiveStack is one scenario's persistent storage: the inner stores
// and quota ledger survive invocations, while the fault-injecting
// wrapper is rebuilt per invocation — process-restart semantics, which
// resets the injector's attempt counters so a fresh injector deals a
// resumed run the same outcomes the uninterrupted run saw.
type adaptiveStack struct {
	d      adaptiveDrill
	mem    *store.MemStore
	sec    *store.MemStore
	ledger *store.QuotaLedger
}

func newAdaptiveStack(d adaptiveDrill) *adaptiveStack {
	a := &adaptiveStack{d: d, mem: store.NewMemStore()}
	if d.secondary {
		a.sec = store.NewMemStore()
	}
	if d.quota != nil {
		a.ledger = store.NewQuotaLedger(*d.quota, nil)
	}
	return a
}

func (a *adaptiveStack) options(crashEvents int) Options {
	prim := store.Store(store.Checked(store.NewFaultStore(a.mem, a.d.plan)))
	if a.ledger != nil {
		prim = store.NewQuotaStore(a.ledger, prim)
	}
	ad := &AdaptiveOptions{
		Retry:         a.d.retry,
		ReplanRatio:   1.4,
		FailoverAfter: 2,
		DownAfter:     3,
	}
	if l := a.d.ladder; l != nil {
		ad.FailoverAfter, ad.DownAfter, ad.ProbeEvery = l.FailoverAfter, l.DownAfter, l.ProbeEvery
	}
	if a.d.replanner != nil {
		ad.Replanner = a.d.replanner()
	}
	if a.sec != nil {
		ad.Secondary = store.Checked(a.sec)
		if a.d.secFailSeq != 0 {
			ad.Secondary = store.Checked(seqFailStore{a.sec, a.d.secFailSeq})
		}
	}
	return Options{
		RunID: "acceptance", Store: prim, Downtime: 1,
		CrashAfterEvents: crashEvents, Adaptive: ad,
	}
}

// hostileDrills are the hostile-store rows for one crash scenario: clean
// write failures, torn writes, silent loss of old checkpoints,
// transient read failures, and all of them at once with latency, each
// absorbed by FixedRetry{4} without a replanner.
func hostileDrills(sc crashScenario) []adaptiveDrill {
	var out []adaptiveDrill
	for _, h := range []struct {
		name string
		plan store.FaultPlan
	}{
		{"write-fail", store.FaultPlan{Seed: 1, WriteFail: 0.3}},
		{"torn", store.FaultPlan{Seed: 2, TornWrite: 0.4}},
		{"lose-old", store.FaultPlan{Seed: 3, LoseOld: 0.8}},
		{"read-fail", store.FaultPlan{Seed: 4, ReadFail: 0.3}},
		{"mixed", store.FaultPlan{Seed: 5, WriteFail: 0.15, TornWrite: 0.15, LoseOld: 0.4, ReadFail: 0.15, MeanLatency: 2}},
	} {
		out = append(out, adaptiveDrill{
			name: sc.name + "/" + h.name, w: sc.w, src: sc.src,
			plan: h.plan, retry: FixedRetry{Attempts: 4},
		})
	}
	return out
}

// adaptiveDrills builds the degraded-store scenario matrix: chain plans
// under drift+replan with exponential backoff and with fixed retries,
// a quota that runs out mid-run, an always-failing primary with
// failover, a failover whose secondary goes down and is re-admitted by
// a ride-out probe, a no-retry ladder collapse, a DAG live-set plan
// with the order replanner, and the hostile-store rows of every crash
// scenario.
func adaptiveDrills(t *testing.T) []adaptiveDrill {
	t.Helper()
	cp, _ := chainProblem(t)
	chainSrc := func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.08}, 101, 1) }
	chainRP := func() Replanner { return ChainReplanner{CP: cp} }
	g, plan := diamondDAG(t)
	cm := core.LiveSetCosts{R0: 0.5}
	dagW, err := NewDAGWorkload(g, plan, cm)
	if err != nil {
		t.Fatal(err)
	}
	order, err := g.TopologicalOrder()
	if err != nil {
		t.Fatal(err)
	}
	m, err := expectation.NewModel(0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	drills := []adaptiveDrill{
		{
			name: "chain/drift-exp-backoff", w: chainWorkload(t), src: chainSrc,
			plan:  store.FaultPlan{Seed: 11, MeanLatency: 2.5, WriteFail: 0.2, ReadFail: 0.1},
			retry: ExpBackoff{Base: 0.5, Cap: 4, MaxAttempts: 5}, replanner: chainRP,
		},
		{
			name: "chain/torn-fixed-retry", w: chainWorkload(t), src: chainSrc,
			plan:  store.FaultPlan{Seed: 12, MeanLatency: 1.5, WriteFail: 0.3, TornWrite: 0.2},
			retry: FixedRetry{Attempts: 3}, replanner: chainRP,
		},
		{
			name: "chain/quota-down", w: chainWorkload(t), src: chainSrc,
			plan:  store.FaultPlan{Seed: 13, MeanLatency: 1},
			quota: &store.Quota{MaxCheckpoints: 2},
			retry: ExpBackoff{Base: 0.5, MaxAttempts: 3}, replanner: chainRP,
		},
		{
			name: "chain/failover", w: chainWorkload(t), src: chainSrc,
			plan:      store.FaultPlan{Seed: 14, WriteFail: 1},
			secondary: true, retry: FixedRetry{Attempts: 1}, replanner: chainRP,
		},
		{
			// Seq 1 fails over, seq 2 takes the secondary down, seq 3's
			// probe re-admits it at LevelDegraded: later saves still go
			// to the secondary, so a resume must too.
			name: "chain/failover-down-readmit", w: chainWorkload(t), src: chainSrc,
			plan:      store.FaultPlan{Seed: 17, WriteFail: 1},
			secondary: true, secFailSeq: 2, retry: FixedRetry{Attempts: 1},
			ladder: &AdaptiveOptions{FailoverAfter: 1, DownAfter: 1, ProbeEvery: 1},
		},
		{
			name: "chain/no-retry", w: chainWorkload(t), src: chainSrc,
			plan:  store.FaultPlan{Seed: 15, MeanLatency: 1, WriteFail: 0.25},
			retry: NoRetry{},
		},
		{
			name: "dag/live-set-drift", w: dagW,
			src:   func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.05}, 101, 2) },
			plan:  store.FaultPlan{Seed: 16, MeanLatency: 2, WriteFail: 0.2},
			retry: ExpBackoff{Base: 0.5, Cap: 4, MaxAttempts: 4},
			replanner: func() Replanner {
				return OrderReplanner{G: g, Order: order, M: m, CM: cm}
			},
		},
	}
	for _, sc := range crashScenarios(t) {
		drills = append(drills, hostileDrills(sc)...)
	}
	return drills
}

// TestAdaptiveCrashResumeEveryEventPoint is the resilience acceptance
// property (the resume-under-backoff matrix): for every degraded-store
// scenario, a run killed at EVERY possible journal length and resumed
// once finishes with a journal byte-identical to the uninterrupted
// run's — retries, backoff, replans, quota rejections, failover and
// persistence-off included. Store trouble degrades rather than errors
// out, so a single clean resume always completes.
func TestAdaptiveCrashResumeEveryEventPoint(t *testing.T) {
	for _, d := range adaptiveDrills(t) {
		t.Run(d.name, func(t *testing.T) {
			refStack := newAdaptiveStack(d)
			ref, err := Execute(d.w, d.src(), refStack.options(0))
			if err != nil {
				t.Fatal(err)
			}
			if ref.Journal.Count(EvComplete) != 1 {
				t.Fatal("reference run did not complete")
			}
			n := len(ref.Journal)
			for kill := 1; kill <= n; kill++ {
				stack := newAdaptiveStack(d)
				_, err := Execute(d.w, d.src(), stack.options(kill))
				if err == nil {
					t.Fatalf("kill@%d did not crash a %d-event run", kill, n)
				}
				if !errors.Is(err, ErrCrashed) {
					t.Fatalf("kill@%d: unexpected error: %v", kill, err)
				}
				res, err := Execute(d.w, d.src(), stack.options(0))
				if err != nil {
					t.Fatalf("kill@%d: resume: %v", kill, err)
				}
				if !res.Journal.Equal(ref.Journal) {
					t.Fatalf("kill@%d: resumed journal differs from reference (%d vs %d events)",
						kill, len(res.Journal), len(ref.Journal))
				}
				if res.Metrics != ref.Metrics {
					t.Fatalf("kill@%d: metrics differ: %+v vs %+v", kill, res.Metrics, ref.Metrics)
				}
			}
		})
	}
}

// TestCrashAfterSavesKillPoint covers the save-count kill point: the
// crash lands immediately after a successful save, the resume picks up
// exactly there, and the re-save of the restored checkpoint on resume
// does not count — so CrashAfterSaves: 1 advances every invocation by
// exactly one commit.
func TestCrashAfterSavesKillPoint(t *testing.T) {
	w := chainWorkload(t)
	src := func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.08}, 55, 1) }
	ref, err := Execute(w, src(), Options{Store: store.Checked(store.NewMemStore()), Downtime: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := store.Checked(store.NewMemStore())
	for i := 0; i < w.Segments()-1; i++ {
		res, err := Execute(w, src(), Options{Store: st, Downtime: 1, CrashAfterSaves: 1})
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("crash %d: %v, want ErrCrashed", i, err)
		}
		if res.Saves != 1 || res.ResumeSeq != uint64(i) {
			t.Fatalf("crash %d: saves=%d resumed from seq %d, want 1 new save past seq %d",
				i, res.Saves, res.ResumeSeq, i)
		}
	}
	res, err := Execute(w, src(), Options{Store: st, Downtime: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Resumed || res.ResumeSeq != uint64(w.Segments()-1) {
		t.Fatalf("resumed=%v seq=%d, want resume from seq %d", res.Resumed, res.ResumeSeq, w.Segments()-1)
	}
	if res.Saves != 1 {
		t.Fatalf("final invocation saves = %d, want 1 (the last commit only)", res.Saves)
	}
	if !res.Journal.Equal(ref.Journal) {
		t.Fatal("journal differs after save-count crashes")
	}
	// The planned expectation is still what the realized run decomposes
	// against; a resumed run reports the same makespan as the reference.
	if res.Makespan != ref.Makespan {
		t.Fatalf("makespan %v != reference %v", res.Makespan, ref.Makespan)
	}
}
