package expt

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/expectation"
	"repro/internal/expt/result"
	"repro/internal/failure"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/store"
)

func init() {
	register(Info{
		ID:    "E20",
		Title: "Networked stores: partition replay identity, quorum vs single-remote under partition schedules, telemetry-fed planning",
		Claim: "over a simulated network with keyed latency, loss and scheduled partition windows, (1) an execution killed at any event point during an active partition resumes to a journal bit-identical to the uninterrupted run's, for a single remote store and for a 3-replica write-quorum; (2) the quorum store realizes a strictly lower expected makespan than the single remote under the same partition schedule (paired 99% CI of the delta excluding zero); (3) a plan-time store probe recovers the network's mean per-op latency within EWMA tolerance and the telemetry-fed re-solve is no worse than the naive plan under effective checkpoint costs",
	}, planE20)
}

// e20Problem is a chain dense in checkpoints: partition drills need
// commits frequent enough that a window contains several of them (the
// ladder goes down on the minority side) and the quorum's majority side
// has many commits to keep winning.
func e20Problem() (*core.ChainProblem, error) {
	const (
		n      = 14
		lambda = 0.08
		down   = 1.0
	)
	m, err := expectation.NewModel(lambda, down)
	if err != nil {
		return nil, err
	}
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
	return cp, nil
}

const (
	e20Lambda   = 0.08
	e20Downtime = 1.0
)

// e20Workload is the checkpoint-everywhere workload over e20Problem —
// the densest commit schedule, so partition windows always cover
// several commits.
func e20Workload(cp *core.ChainProblem) (*exec.Workload, error) {
	ck := make([]bool, cp.Len())
	for i := range ck {
		ck[i] = true
	}
	return exec.NewChainWorkload(cp, ck)
}

// e20Spec is one drill's persistent storage: one mem store per replica
// survives invocations, while each Build rebuilds the network and every
// wrapper — process-restart semantics, resetting the network's logical
// attempt counters exactly as the replay contract requires.
func e20Spec(netCfg netsim.Config, quorum bool) store.Stack {
	if !quorum {
		return store.Stack{Bottoms: memBottoms(1), Net: &netCfg, Timeout: 1.5}
	}
	return store.Stack{Bottoms: memBottoms(3), Net: &netCfg, Timeout: 1.5, W: 2, R: 2}
}

// memBottoms returns n fresh mem stores, one per replica.
func memBottoms(n int) []store.Store {
	out := make([]store.Store, n)
	for i := range out {
		out[i] = store.NewMemStore()
	}
	return out
}

func e20Options(spec store.Stack, cp *core.ChainProblem, crashEvents int) (exec.Options, error) {
	st, err := spec.Build()
	if err != nil {
		return exec.Options{}, err
	}
	return exec.Options{
		RunID: "e20", Store: st, Downtime: e20Downtime,
		CrashAfterEvents: crashEvents,
		Adaptive: &exec.AdaptiveOptions{
			Retry:       exec.ExpBackoff{Base: 0.25, Cap: 0.5, MaxAttempts: 4},
			Replanner:   exec.ChainReplanner{CP: cp},
			ReplanRatio: 1.4,
			DownAfter:   2,
			ProbeEvery:  2,
		},
	}, nil
}

// e20NetCfg schedules one partition window isolating endpoint s0. For
// the single-store drill that is THE store — the executor is on the
// minority side and must ride the window out; for the quorum drill it
// is one replica of three — the majority side keeps committing.
func e20NetCfg(seed uint64, start, end float64) netsim.Config {
	return netsim.Config{
		Seed:    seed,
		Latency: 0.2,
		Jitter:  0.3,
		Loss:    0.05,
		Partitions: []netsim.Window{
			{Start: start, End: end, Isolated: []string{"s0"}},
		},
	}
}

func planE20(cfg Config) (*Plan, error) {
	cp, err := e20Problem()
	if err != nil {
		return nil, err
	}

	p := &Plan{}

	// Table 1: partition replay identity. For each store architecture,
	// run an uninterrupted reference under an active partition window,
	// then kill a fresh-stack run at event points across the whole
	// journal — inside the window included — resume once, and demand
	// journal and metrics match the reference bit-for-bit. Full budget
	// kills at EVERY event point; quick strides through them.
	drills := p.AddTable(&result.Table{
		ID:    "E20",
		Title: "partition replay identity: executions killed at event points during an active partition window, resumed from the store",
		Columns: []string{
			"scenario", "store", "kill_points", "journal_events", "give_ups", "down_moves", "journal_identical", "metrics_identical",
		},
	})
	type identOut struct{ ok bool }
	killStride := 1
	if cfg.Quick {
		killStride = 7
	}
	for _, quorum := range []bool{false, true} {
		quorum := quorum
		p.Job(drills, func(s *rng.Stream) (RowOut, error) {
			name, storeTag := "single-remote", "mem+crc+remote"
			if quorum {
				name, storeTag = "quorum-n3-w2", "mem+crc+remote×3+quorum"
			}
			srcSeed := s.Uint64()
			netSeed := s.Uint64()
			src := func() exec.Source {
				return exec.NewKeyedSource(failure.Exponential{Lambda: e20Lambda}, srcSeed, 1)
			}
			w, err := e20Workload(cp)
			if err != nil {
				return RowOut{}, err
			}
			base, err := exec.Execute(w, src(), exec.Options{Downtime: e20Downtime})
			if err != nil {
				return RowOut{}, err
			}
			netCfg := e20NetCfg(netSeed, 0.2*base.Makespan, 1.2*base.Makespan)

			run := func(spec store.Stack, crash int) (*exec.Result, error) {
				w, err := e20Workload(cp)
				if err != nil {
					return nil, err
				}
				o, err := e20Options(spec, cp, crash)
				if err != nil {
					return nil, err
				}
				return exec.Execute(w, src(), o)
			}
			ref, err := run(e20Spec(netCfg, quorum), 0)
			if err != nil {
				return RowOut{}, err
			}
			if ref.Journal.Count(exec.EvComplete) != 1 {
				return RowOut{}, fmt.Errorf("E20: %s reference run did not complete", name)
			}
			downs := 0
			for _, e := range ref.Journal {
				if e.Kind == exec.EvDegrade && exec.DegradeLevel(e.Arg) == exec.LevelDown {
					downs++
				}
			}
			if !quorum && (ref.GiveUps == 0 || downs == 0) {
				return RowOut{}, fmt.Errorf("E20: partition never degraded the single store (giveups=%d, downs=%d)",
					ref.GiveUps, downs)
			}
			ne := len(ref.Journal)
			kills := 0
			identical, metricsOK := true, true
			for kill := 1; kill <= ne; kill += killStride {
				kills++
				spec := e20Spec(netCfg, quorum)
				_, err := run(spec, kill)
				if !errors.Is(err, exec.ErrCrashed) {
					return RowOut{}, fmt.Errorf("E20: %s kill@%d: want ErrCrashed, got %v", name, kill, err)
				}
				res, err := run(spec, 0)
				if err != nil {
					return RowOut{}, fmt.Errorf("E20: %s resume after kill@%d: %w", name, kill, err)
				}
				identical = identical && res.Journal.Equal(ref.Journal)
				metricsOK = metricsOK && res.Metrics == ref.Metrics &&
					res.Replans == ref.Replans && res.GiveUps == ref.GiveUps &&
					res.Level == ref.Level && res.MaxRewind == ref.MaxRewind
			}
			return RowOut{
				Cells: []result.Cell{
					result.Str(name),
					result.Str(storeTag),
					result.Int(kills),
					result.Int(ne),
					result.Int(ref.GiveUps),
					result.Int(downs),
					result.Bool(identical),
					result.Bool(metricsOK),
				},
				Value: identOut{ok: identical && metricsOK},
			}, nil
		})
	}

	// Table 2: paired quorum-vs-single campaign under partition
	// schedules. Both arms replay the SAME failure environment and the
	// SAME network seed; the only difference is the store architecture
	// (one remote endpoint vs three replicas behind a write-quorum), and
	// the window isolates s0 in both — THE store for the single arm, a
	// minority replica for the quorum. The paired per-run makespan delta
	// therefore isolates the value of quorum replication.
	campRuns := cfg.Runs(300, 60)
	camp := p.AddTable(&result.Table{
		ID: "E20",
		Title: fmt.Sprintf("quorum (N=3, W=2) vs single remote under partition schedules: paired deltas over %d runs (chain n=%d, λ=%g, D=%g)",
			campRuns, cp.Len(), e20Lambda, e20Downtime),
		Columns: []string{
			"window_end", "runs", "single_mean", "quorum_mean", "delta_mean", "delta_ci99", "single_giveups_mean", "ci_excludes_0",
		},
	})
	type campOut struct {
		applicable bool // the acceptance claim covers the long windows
		improves   bool
	}
	for _, windowEnd := range []float64{0.5, 0.9, 1.2} {
		windowEnd := windowEnd
		p.Job(camp, func(s *rng.Stream) (RowOut, error) {
			var single, quorum, delta stats.Summary
			giveUps := 0
			for r := 0; r < campRuns; r++ {
				srcSeed := s.Uint64()
				netSeed := s.Uint64()
				src := func() exec.Source {
					return exec.NewKeyedSource(failure.Exponential{Lambda: e20Lambda}, srcSeed, 1)
				}
				w, err := e20Workload(cp)
				if err != nil {
					return RowOut{}, err
				}
				base, err := exec.Execute(w, src(), exec.Options{Downtime: e20Downtime})
				if err != nil {
					return RowOut{}, err
				}
				netCfg := e20NetCfg(netSeed, 0.2*base.Makespan, windowEnd*base.Makespan)
				arm := func(isQuorum bool) (*exec.Result, error) {
					w, err := e20Workload(cp)
					if err != nil {
						return nil, err
					}
					o, err := e20Options(e20Spec(netCfg, isQuorum), cp, 0)
					if err != nil {
						return nil, err
					}
					return exec.Execute(w, src(), o)
				}
				sg, err := arm(false)
				if err != nil {
					return RowOut{}, err
				}
				qr, err := arm(true)
				if err != nil {
					return RowOut{}, err
				}
				single.Add(sg.Makespan)
				quorum.Add(qr.Makespan)
				delta.Add(sg.Makespan - qr.Makespan)
				giveUps += sg.GiveUps
			}
			ci := delta.CI(0.99)
			excludes := delta.Mean()-ci > 0
			applicable := windowEnd >= 0.9
			return RowOut{
				Cells: []result.Cell{
					result.Float(windowEnd),
					result.Int(campRuns),
					result.Float(single.Mean()),
					result.Float(quorum.Mean()),
					result.Float(delta.Mean()),
					result.Float(ci),
					result.Float(float64(giveUps) / float64(campRuns)),
					result.Bool(excludes),
				},
				Value: campOut{applicable: applicable, improves: excludes},
			}, nil
		})
	}

	// Table 3: telemetry-fed planning. A plan-time probe of the remote
	// stack must recover the network's analytic mean per-op latency
	// (base + Exp-jitter mean) within the EWMA's sampling tolerance, and
	// the whole-plan re-solve under C_eff = C + estimate must be no
	// worse than the naive plan when both are costed at effective
	// checkpoint prices.
	tele := p.AddTable(&result.Table{
		ID:    "E20",
		Title: "telemetry-fed planning: probe estimate vs analytic network latency, and re-solved plans under effective checkpoint costs",
		Columns: []string{
			"latency", "jitter", "probe_estimate", "analytic_mean", "ewma_tol", "within_tol", "naive_ckpts", "telemetry_ckpts", "naive_eff_makespan", "telemetry_eff_makespan", "telemetry_no_worse",
		},
	})
	type teleOut struct{ ok bool }
	naive, err := core.SolveChainDP(cp)
	if err != nil {
		return nil, err
	}
	for _, lat := range []float64{0.5, 1.5, 3} {
		lat := lat
		p.Job(tele, func(s *rng.Stream) (RowOut, error) {
			jitter := lat / 2
			netCfg := netsim.Config{Seed: s.Uint64(), Latency: lat, Jitter: jitter}
			st, err := store.Stack{Bottoms: memBottoms(1), Net: &netCfg, Timeout: 8 * (lat + jitter)}.Build()
			if err != nil {
				return RowOut{}, err
			}
			probe := exec.ProbeStore(st, "e20-telemetry", 32, 0, 0)
			if !probe.Tracked || probe.Failures != 0 {
				return RowOut{}, fmt.Errorf("E20: probe = %+v, want tracked with no failures", probe)
			}
			// The EWMA (weight α = 0.25) of i.i.d. samples with standard
			// deviation σ has asymptotic standard deviation σ·√(α/(2−α));
			// the jitter is Exp with mean = σ = jitter. Accept 4 of those.
			analytic := lat + jitter
			tol := 4 * jitter * math.Sqrt(0.25/1.75)
			within := math.Abs(probe.Estimate-analytic) <= tol

			segs, err := exec.ChainReplanner{CP: cp}.Replan(0, probe.Estimate)
			if err != nil {
				return RowOut{}, err
			}
			ck := make([]bool, cp.Len())
			for _, seg := range segs {
				ck[seg.End] = true
			}
			// Cost both placements at the effective checkpoint price the
			// store actually charges.
			eff := *cp
			eff.Ckpt = make([]float64, cp.Len())
			for i, c := range cp.Ckpt {
				eff.Ckpt[i] = c + probe.Estimate
			}
			naiveEff, err := eff.Makespan(naive.CheckpointAfter)
			if err != nil {
				return RowOut{}, err
			}
			teleEff, err := eff.Makespan(ck)
			if err != nil {
				return RowOut{}, err
			}
			noWorse := teleEff <= naiveEff+1e-9
			return RowOut{
				Cells: []result.Cell{
					result.Float(lat),
					result.Float(jitter),
					result.Float(probe.Estimate),
					result.Float(analytic),
					result.Float(tol),
					result.Bool(within),
					result.Int(len(naive.Positions())),
					result.Int(countTrue(ck)),
					result.Float(naiveEff),
					result.Float(teleEff),
					result.Bool(noWorse),
				},
				Value: teleOut{ok: within && noWorse},
			}, nil
		})
	}

	p.Finish = func(tables []*result.Table, outs []RowOut) error {
		allIdent, allImprove, allTele := true, true, true
		for _, out := range outs {
			switch v := out.Value.(type) {
			case identOut:
				allIdent = allIdent && v.ok
			case campOut:
				if v.applicable {
					allImprove = allImprove && v.improves
				}
			case teleOut:
				allTele = allTele && v.ok
			}
		}
		tables[drills].AddNote("acceptance: every execution killed during an active partition window — single remote and 3-replica quorum — resumed to the uninterrupted journal and metrics bit-for-bit → %s", yn(allIdent))
		tables[camp].AddNote("acceptance: the write-quorum strictly beats the single remote store under partition windows covering ≥ 0.9 of the nominal makespan (paired 99%% CI of the delta excludes zero) → %s", yn(allImprove))
		tables[tele].AddNote("acceptance: the plan-time probe recovered the analytic mean latency within EWMA tolerance and the telemetry-fed re-solve was no worse than the naive plan under effective costs → %s", yn(allTele))
		return nil
	}
	return p, nil
}

// countTrue counts set flags in a checkpoint vector.
func countTrue(v []bool) int {
	n := 0
	for _, b := range v {
		if b {
			n++
		}
	}
	return n
}
