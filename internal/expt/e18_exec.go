package expt

import (
	"errors"
	"fmt"
	"math"
	"os"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/expectation"
	"repro/internal/expt/result"
	"repro/internal/failure"
	"repro/internal/rng"
	"repro/internal/store"
)

func init() {
	register(Info{
		ID:    "E18",
		Title: "Crash-safe executor: realized vs planned makespan, and crash/resume replay identity",
		Claim: "executing plans on the runtime realizes the Proposition-1 planned expectations within campaign confidence intervals (chains and DAGs, both cost models), and executions killed at injected fault points resume from persisted checkpoints with bit-identical journals",
	}, planE18)
}

func planE18(cfg Config) (*Plan, error) {
	const (
		n      = 40
		lambda = 0.02
		down   = 1.0
	)
	g, err := dag.Chain(n, dag.DefaultWeights(), SetupStream(cfg, "E18"))
	if err != nil {
		return nil, err
	}
	m, err := expectation.NewModel(lambda, down)
	if err != nil {
		return nil, err
	}
	cp, _, err := core.NewChainProblem(g, m, 0)
	if err != nil {
		return nil, err
	}
	meanC := 0.0
	for _, c := range cp.Ckpt {
		meanC += c
	}
	meanC /= float64(len(cp.Ckpt))
	runs := cfg.Runs(20_000, 1_500)

	p := &Plan{}
	chain := p.AddTable(&result.Table{
		ID:    "E18",
		Title: fmt.Sprintf("chain plans executed on the runtime: planned (Prop. 1) vs realized (%d runs, λ=%g, D=%g, n=%d)", runs, lambda, down, n),
		Columns: []string{
			"strategy", "ckpts", "planned", "realized", "ci99", "rel_err", "within_ci",
		},
	})

	type stratVec struct {
		name string
		ck   []bool
	}
	var strategies []stratVec
	dp, err := core.SolveChainDP(cp)
	if err != nil {
		return nil, err
	}
	strategies = append(strategies, stratVec{"dp", dp.CheckpointAfter})
	daly, err := core.PeriodicCheckpoint(cp, expectation.DalyPeriod(meanC, lambda))
	if err != nil {
		return nil, err
	}
	strategies = append(strategies, stratVec{"daly", daly.CheckpointAfter})
	young, err := core.PeriodicCheckpoint(cp, expectation.YoungPeriod(meanC, lambda))
	if err != nil {
		return nil, err
	}
	strategies = append(strategies, stratVec{"young", young.CheckpointAfter})
	every5 := make([]bool, n)
	for i := range every5 {
		every5[i] = (i+1)%5 == 0
	}
	every5[n-1] = true
	strategies = append(strategies, stratVec{"every:5", every5})

	type ciOut struct{ within bool }
	for _, sv := range strategies {
		sv := sv
		p.Job(chain, func(s *rng.Stream) (RowOut, error) {
			w, err := exec.NewChainWorkload(cp, sv.ck)
			if err != nil {
				return RowOut{}, err
			}
			planned := w.Planned(m)
			res, err := exec.Campaign(w, failure.Exponential{Lambda: lambda}, exec.CampaignOptions{
				Runs: runs, Seed: s.Uint64(), Workers: 1, Downtime: down,
			})
			if err != nil {
				return RowOut{}, err
			}
			realized := res.Makespan.Mean()
			ci := res.Makespan.CI(0.99)
			within := math.Abs(realized-planned) <= ci
			return RowOut{
				Cells: []result.Cell{
					result.Str(sv.name),
					result.Int(len(checkpointCount(sv.ck))),
					result.Float(planned),
					result.Float(realized),
					result.Float(ci),
					result.Sci(math.Abs(realized-planned) / planned),
					result.Bool(within),
				},
				Value: ciOut{within: within},
			}, nil
		})
	}

	// DAG plans under both cost models: the solver's Expected, the
	// workload's recomputed Planned (they must agree — same segment
	// arithmetic), and the realized campaign mean.
	gd, err := dag.Layered(5, 4, 0.4, dag.DefaultWeights(), SetupStream(cfg, "E18").Keyed(2))
	if err != nil {
		return nil, err
	}
	order, err := gd.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	dagTab := p.AddTable(&result.Table{
		ID:    "E18",
		Title: fmt.Sprintf("DAG plans (layered 5×4) executed under both cost models (%d runs, λ=%g)", runs, lambda),
		Columns: []string{
			"cost_model", "segments", "E_solver", "planned_exec", "realized", "ci99", "within_ci",
		},
	})
	for _, cm := range []core.CostModel{core.LastTaskCosts{R0: 0.5}, core.LiveSetCosts{R0: 0.5}} {
		cm := cm
		p.Job(dagTab, func(s *rng.Stream) (RowOut, error) {
			sol, err := core.SolveOrderDP(gd, order, m, cm)
			if err != nil {
				return RowOut{}, err
			}
			w, err := exec.NewDAGWorkload(gd, sol.Plan(), cm)
			if err != nil {
				return RowOut{}, err
			}
			planned := w.Planned(m)
			if math.Abs(planned-sol.Expected) > 1e-9*math.Max(planned, 1) {
				return RowOut{}, fmt.Errorf("E18: workload planned %v disagrees with solver expected %v under %s",
					planned, sol.Expected, cm.Name())
			}
			res, err := exec.Campaign(w, failure.Exponential{Lambda: lambda}, exec.CampaignOptions{
				Runs: runs, Seed: s.Uint64(), Workers: 1, Downtime: down,
			})
			if err != nil {
				return RowOut{}, err
			}
			realized := res.Makespan.Mean()
			ci := res.Makespan.CI(0.99)
			within := math.Abs(realized-planned) <= ci
			return RowOut{
				Cells: []result.Cell{
					result.Str(cm.Name()),
					result.Int(w.Segments()),
					result.Float(sol.Expected),
					result.Float(planned),
					result.Float(realized),
					result.Float(ci),
					result.Bool(within),
				},
				Value: ciOut{within: within},
			}, nil
		})
	}

	// Crash/resume acceptance: kill the executor at injected fault
	// points, resume from the persisted store, and demand the final
	// journal be byte-identical to an uninterrupted run's.
	crash := p.AddTable(&result.Table{
		ID:    "E18",
		Title: "crash/resume drills: executions killed at injected points, resumed from the store",
		Columns: []string{
			"plan", "store", "kill_points", "crashes", "journal_events", "journal_identical", "metrics_identical",
		},
	})
	type crashOut struct{ identical bool }
	// A drill's backing store persists across invocations; the fault
	// injector and codec are rebuilt over it per invocation, as a
	// process restart would.
	type drill struct {
		plan     string
		storeTag string
		workload func() (*exec.Workload, error)
		source   func() exec.Source
		backing  func() (store.Store, func(), error)
		faults   *store.FaultPlan
	}
	chainDP := func() (*exec.Workload, error) { return exec.NewChainWorkload(cp, dp.CheckpointAfter) }
	dagLive := func() (*exec.Workload, error) {
		sol, err := core.SolveOrderDP(gd, order, m, core.LiveSetCosts{R0: 0.5})
		if err != nil {
			return nil, err
		}
		return exec.NewDAGWorkload(gd, sol.Plan(), core.LiveSetCosts{R0: 0.5})
	}
	fileBacking := func() (store.Store, func(), error) {
		dir, err := os.MkdirTemp("", "e18-store-*")
		if err != nil {
			return nil, nil, err
		}
		fs, err := store.NewFileStore(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		return fs, func() { os.RemoveAll(dir) }, nil
	}
	memBacking := func() (store.Store, func(), error) { return store.NewMemStore(), func() {}, nil }
	drills := []drill{
		{
			plan: "chain/dp", storeTag: "file+crc",
			workload: chainDP,
			source:   func() exec.Source { return exec.NewKeyedSource(failure.Exponential{Lambda: lambda}, 1234, 1) },
			backing:  fileBacking,
		},
		{
			plan: "chain/dp", storeTag: "file+crc+faults",
			workload: chainDP,
			source:   func() exec.Source { return exec.NewKeyedSource(failure.Exponential{Lambda: lambda}, 1234, 1) },
			backing:  fileBacking,
			faults:   &store.FaultPlan{Seed: 99, WriteFail: 0.1, TornWrite: 0.1, LoseOld: 0.3, ReadFail: 0.1},
		},
		{
			plan: "dag/live-set", storeTag: "mem+crc+faults",
			workload: dagLive,
			source:   func() exec.Source { return exec.NewKeyedSource(failure.Exponential{Lambda: lambda}, 1234, 2) },
			backing:  memBacking,
			faults:   &store.FaultPlan{Seed: 7, WriteFail: 0.15, TornWrite: 0.15, LoseOld: 0.4, ReadFail: 0.15},
		},
	}
	for _, d := range drills {
		d := d
		opts := func(backing store.Store, kill int) exec.Options {
			st := backing
			if d.faults != nil {
				st = store.NewFaultStore(st, *d.faults)
			}
			return exec.Options{
				RunID: "drill", Store: store.Checked(st), Downtime: down, CrashAfterEvents: kill,
				Adaptive: &exec.AdaptiveOptions{Retry: exec.FixedRetry{Attempts: 4}},
			}
		}
		p.Job(crash, func(s *rng.Stream) (RowOut, error) {
			w, err := d.workload()
			if err != nil {
				return RowOut{}, err
			}
			bare, err := exec.Execute(w, d.source(), exec.Options{Downtime: down})
			if err != nil {
				return RowOut{}, err
			}
			refBacking, refCleanup, err := d.backing()
			if err != nil {
				return RowOut{}, err
			}
			defer refCleanup()
			ref, err := exec.Execute(w, d.source(), opts(refBacking, 0))
			if err != nil {
				return RowOut{}, err
			}
			backing, cleanup, err := d.backing()
			if err != nil {
				return RowOut{}, err
			}
			defer cleanup()
			ne := len(ref.Journal)
			kills := []int{ne / 5, 2 * ne / 5, 3 * ne / 5, 4 * ne / 5}
			crashes := 0
			for _, kill := range kills {
				_, err := exec.Execute(w, d.source(), opts(backing, kill))
				if !errors.Is(err, exec.ErrCrashed) {
					return RowOut{}, fmt.Errorf("E18: kill point %d did not crash: %v", kill, err)
				}
				crashes++
			}
			res, err := exec.Execute(w, d.source(), opts(backing, 0))
			if err != nil {
				return RowOut{}, err
			}
			// The resumed journal must equal the uninterrupted store-backed
			// run's; the metrics must equal the store-less run's (the
			// drills inject no latency, so persistence costs no time).
			identical := res.Journal.Equal(ref.Journal)
			metricsOK := res.Metrics == bare.Metrics
			return RowOut{
				Cells: []result.Cell{
					result.Str(d.plan),
					result.Str(d.storeTag),
					result.Int(len(kills)),
					result.Int(crashes),
					result.Int(len(res.Journal)),
					result.Bool(identical),
					result.Bool(metricsOK),
				},
				Value: crashOut{identical: identical && metricsOK},
			}, nil
		})
	}

	p.Finish = func(tables []*result.Table, outs []RowOut) error {
		allCI, allIdent := true, true
		for _, out := range outs {
			switch v := out.Value.(type) {
			case ciOut:
				allCI = allCI && v.within
			case crashOut:
				allIdent = allIdent && v.identical
			}
		}
		tables[chain].AddNote("acceptance: every realized makespan within its 99%% campaign CI of the planned expectation: %s", yn(allCI))
		tables[crash].AddNote("acceptance: every killed-and-resumed execution reproduced the uninterrupted journal and metrics bit-for-bit: %s", yn(allIdent))
		return nil
	}
	return p, nil
}

// checkpointCount returns the checkpointed positions of a vector (it
// reuses the plan-level convention: the count is what the table shows).
func checkpointCount(ck []bool) []int {
	var out []int
	for i, c := range ck {
		if c {
			out = append(out, i)
		}
	}
	return out
}
