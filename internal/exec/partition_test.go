package exec

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/expectation"
	"repro/internal/failure"
	"repro/internal/netsim"
	"repro/internal/store"
)

// partitionSpec is one partition drill's persistent storage: replica
// mem stores survive invocations while each Build rebuilds the network
// and every wrapper — process-restart semantics, resetting the
// network's logical attempt counters exactly as the replay contract
// requires.
func partitionSpec(netCfg netsim.Config, quorum bool) store.Stack {
	spec := store.Stack{Bottoms: []store.Store{store.NewMemStore()}, Net: &netCfg, Timeout: 1.5}
	if quorum {
		spec.Bottoms = append(spec.Bottoms, store.NewMemStore(), store.NewMemStore())
		spec.W, spec.R = 2, 2
	}
	return spec
}

// partitionProblem is a chain dense in checkpoints: partition drills
// need commits frequent enough that a window contains several of them
// (ladder goes down) and several more follow the heal (ride-out probe
// re-admits).
func partitionProblem(t *testing.T) *core.ChainProblem {
	t.Helper()
	m, err := expectation.NewModel(0.08, 1)
	if err != nil {
		t.Fatal(err)
	}
	const n = 14
	cp := &core.ChainProblem{
		Weights:         make([]float64, n),
		Ckpt:            make([]float64, n),
		Rec:             make([]float64, n),
		InitialRecovery: 0.2,
		Model:           m,
	}
	for i := 0; i < n; i++ {
		cp.Weights[i] = 1.5
		cp.Ckpt[i] = 0.3
		cp.Rec[i] = 0.25
	}
	return cp
}

// partitionWorkload is partitionProblem with a checkpoint after every
// segment.
func partitionWorkload(t *testing.T) *Workload {
	t.Helper()
	cp := partitionProblem(t)
	ck := make([]bool, len(cp.Weights))
	for i := range ck {
		ck[i] = true
	}
	w, err := NewChainWorkload(cp, ck)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func partitionOptions(t *testing.T, spec store.Stack, crashEvents int) Options {
	st, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		RunID: "acceptance", Store: st, Downtime: 1,
		CrashAfterEvents: crashEvents,
		Adaptive: &AdaptiveOptions{
			Retry:       ExpBackoff{Base: 0.25, Cap: 0.5, MaxAttempts: 3},
			Replanner:   ChainReplanner{CP: partitionProblem(t)},
			ReplanRatio: 1.4,
			DownAfter:   2,
			ProbeEvery:  2,
		},
	}
}

// partitionNetCfg schedules a partition window across the middle of
// the run, isolating endpoint s0. For the single-store drill that is
// THE store — the executor is on the minority side and must ride the
// window out; for the quorum drill it is one replica of three — the
// majority side keeps committing.
func partitionNetCfg(start, end float64) netsim.Config {
	return netsim.Config{
		Seed:    21,
		Latency: 0.2,
		Jitter:  0.3,
		Loss:    0.05,
		Partitions: []netsim.Window{
			{Start: start, End: end, Isolated: []string{"s0"}},
		},
	}
}

// TestPartitionEveryEventPointKillResume is the tentpole acceptance
// drill: under an active partition window — single remote store cut
// off mid-run, and a quorum with one isolated replica — a run killed
// at EVERY possible journal length and resumed once finishes with a
// journal and metrics byte-identical to the uninterrupted run's.
// Kill points inside the window are the interesting ones (resume
// while the store is unreachable); the drill covers them and every
// other point too.
func TestPartitionEveryEventPointKillResume(t *testing.T) {
	w := partitionWorkload(t)
	src := func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.08}, 101, 1) }
	base, err := Execute(w, src(), Options{Downtime: 1})
	if err != nil {
		t.Fatal(err)
	}
	mk := base.Makespan
	netCfg := partitionNetCfg(0.2*mk, 1.2*mk)

	for _, quorum := range []bool{false, true} {
		name := "single-remote"
		if quorum {
			name = "quorum-n3-w2"
		}
		t.Run(name, func(t *testing.T) {
			ref, err := Execute(w, src(), partitionOptions(t, partitionSpec(netCfg, quorum), 0))
			if err != nil {
				t.Fatal(err)
			}
			if ref.Journal.Count(EvComplete) != 1 {
				t.Fatal("reference run did not complete")
			}
			if !quorum {
				// The single store must actually have been cut off: commits
				// gave up during the window and the ladder moved.
				if ref.GiveUps == 0 || ref.Journal.Count(EvDegrade) == 0 {
					t.Fatalf("partition never degraded the single store (giveups=%d, degrades=%d)",
						ref.GiveUps, ref.Journal.Count(EvDegrade))
				}
			} else if ref.GiveUps != 0 {
				// The majority side never gives up a commit: W=2 of 3
				// replicas stay reachable throughout the window.
				t.Fatalf("quorum side gave up %d commits during the window", ref.GiveUps)
			}
			n := len(ref.Journal)
			for kill := 1; kill <= n; kill++ {
				spec := partitionSpec(netCfg, quorum)
				_, err := Execute(w, src(), partitionOptions(t, spec, kill))
				if err == nil {
					t.Fatalf("kill@%d did not crash a %d-event run", kill, n)
				}
				if !errors.Is(err, ErrCrashed) {
					t.Fatalf("kill@%d: unexpected error: %v", kill, err)
				}
				res, err := Execute(w, src(), partitionOptions(t, spec, 0))
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
				if res.Replans != ref.Replans || res.GiveUps != ref.GiveUps ||
					res.Level != ref.Level || res.MaxRewind != ref.MaxRewind {
					t.Fatalf("kill@%d: resilience counters differ: (%d,%d,%v,%v) vs (%d,%d,%v,%v)",
						kill, res.Replans, res.GiveUps, res.Level, res.MaxRewind,
						ref.Replans, ref.GiveUps, ref.Level, ref.MaxRewind)
				}
			}
		})
	}
}

// TestRideOutProbeReadmits pins the ladder's new path back up: a store
// down for a partition window is re-admitted by the first successful
// probe after the heal, and the journal records both ladder moves.
// With ProbeEvery = 0 the legacy one-way ladder stays down for good.
func TestRideOutProbeReadmits(t *testing.T) {
	w := partitionWorkload(t)
	src := func() Source { return NewKeyedSource(failure.Exponential{Lambda: 0.08}, 101, 1) }
	base, err := Execute(w, src(), Options{Downtime: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Window across the early middle of the run: the first commits
	// succeed, then a stretch of them times out.
	netCfg := netsim.Config{
		Seed:       22,
		Latency:    0.1,
		Partitions: []netsim.Window{{Start: 0.1 * base.Makespan, End: 1.2 * base.Makespan, Isolated: []string{"s0"}}},
	}
	run := func(probeEvery int) *Result {
		st := store.Checked(store.NewRemoteStore(store.NewMemStore(), netsim.New(netCfg), netCfg,
			store.RemoteConfig{Remote: "s0", Timeout: 2}))
		res, err := Execute(w, src(), Options{
			RunID: "rideout", Store: st, Downtime: 1,
			Adaptive: &AdaptiveOptions{
				Retry:      ExpBackoff{Base: 0.5, Cap: 2, MaxAttempts: 2},
				DownAfter:  2,
				ProbeEvery: probeEvery,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	ladderMoves := func(res *Result) (downs, readmits int) {
		for _, e := range res.Journal {
			if e.Kind != EvDegrade {
				continue
			}
			switch DegradeLevel(e.Arg) {
			case LevelDown:
				downs++
			case LevelDegraded:
				readmits++
			}
		}
		return downs, readmits
	}

	probed := run(2)
	if probed.Level != LevelDegraded {
		t.Fatalf("final level with probing = %v, want %v (re-admitted after the heal)", probed.Level, LevelDegraded)
	}
	downs, readmits := ladderMoves(probed)
	if downs == 0 || readmits == 0 {
		t.Fatalf("journal records %d downs and %d re-admissions, want both > 0", downs, readmits)
	}

	legacy := run(0)
	if legacy.Level != LevelDown {
		t.Fatalf("final level without probing = %v, want %v (one-way ladder)", legacy.Level, LevelDown)
	}
	if _, readmits := ladderMoves(legacy); readmits != 0 {
		t.Fatalf("legacy ladder re-admitted the store %d times with probing off", readmits)
	}
	if legacy.Saves >= probed.Saves {
		t.Fatalf("legacy ladder saved %d checkpoints, probing saved %d — probing should persist more",
			legacy.Saves, probed.Saves)
	}
}

// TestTimeoutClassification pins the new transient class: remote
// timeouts (and quorum errors whose representative cause is a timeout)
// retry; quorum errors rooted in permanent causes do not.
func TestTimeoutClassification(t *testing.T) {
	timeout := fmt.Errorf("save r/1: %w", store.ErrTimeout)
	if c := ClassifyStoreError(timeout); c != ClassTransient {
		t.Fatalf("timeout classifies %v, want transient", c)
	}
	quorumTimeout := fmt.Errorf("quorum 1/2: %w: %w", store.ErrQuorum, store.ErrTimeout)
	if c := ClassifyStoreError(quorumTimeout); c != ClassTransient {
		t.Fatalf("quorum timeout classifies %v, want transient", c)
	}
	quorumQuota := fmt.Errorf("quorum 1/2: %w: %w", store.ErrQuorum, store.ErrQuota)
	if c := ClassifyStoreError(quorumQuota); c != ClassPermanent {
		t.Fatalf("quorum quota classifies %v, want permanent", c)
	}
}

// TestProbeStore pins the plan-time telemetry contract: the probe
// estimate equals the exact virtual latency for a deterministic-
// latency store, the timeout for a partitioned one, and zero (with
// Tracked = false) for a stack with no latency ledger.
func TestProbeStore(t *testing.T) {
	netCfg := netsim.Config{Seed: 23, Latency: 0.3}
	st := store.Checked(store.NewRemoteStore(store.NewMemStore(), netsim.New(netCfg), netCfg,
		store.RemoteConfig{Remote: "s0", Timeout: 2}))
	res := ProbeStore(st, "probe", 16, 1024, 0)
	if !res.Tracked || res.Failures != 0 {
		t.Fatalf("probe = %+v, want tracked, no failures", res)
	}
	if res.Estimate != 0.3 {
		t.Fatalf("estimate %v, want the exact 0.3 base latency", res.Estimate)
	}

	cut := netCfg
	cut.Partitions = []netsim.Window{{Start: 0, End: 1e9, Isolated: []string{"s0"}}}
	down := store.Checked(store.NewRemoteStore(store.NewMemStore(), netsim.New(cut), cut,
		store.RemoteConfig{Remote: "s0", Timeout: 2}))
	res = ProbeStore(down, "probe", 8, 1024, 0)
	if res.Failures != 8 {
		t.Fatalf("partitioned probe failures = %d, want all 8", res.Failures)
	}
	if res.Estimate != 2 {
		t.Fatalf("partitioned estimate %v, want the 2.0 timeout", res.Estimate)
	}

	plain := ProbeStore(store.NewMemStore(), "probe", 8, 1024, 0)
	if plain.Tracked || plain.Estimate != 0 {
		t.Fatalf("mem-store probe = %+v, want untracked zero estimate", plain)
	}
}
