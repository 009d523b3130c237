package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/exec"
	"repro/internal/expectation"
	"repro/internal/failure"
	"repro/internal/netsim"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/store"
)

// sizes fixes how large each workload's instances are.
type sizes struct {
	planPool   int     // plan-eval: instances generated and cycled through
	planTasks  int     // plan-eval: chain length
	dagLayers  int     // plan-eval: layered DAG depth
	dagWidth   int     // plan-eval: layered DAG width
	dagDensity float64 // plan-eval: layered DAG edge density
	mcRuns     int     // plan-eval: Monte-Carlo replications

	durablePool  int // exec-durable: instances
	durableTasks int // exec-durable: chain length
	crashEvery   int // exec-durable: journal events between kills

	syncPool     int     // exec-partition-sync: instances
	syncTasks    int     // exec-partition-sync: chain length
	corruptShare float64 // exec-partition-sync: share of seqs corrupted
}

// fullSizes are the sizes BENCHMARK.json's runs use.
var fullSizes = sizes{
	planPool: 8, planTasks: 100_000, dagLayers: 20, dagWidth: 20, dagDensity: 0.3, mcRuns: 100,
	durablePool: 8, durableTasks: 1024, crashEvery: 256,
	syncPool: 16, syncTasks: 256, corruptShare: 0.05,
}

// tinySizes keep every code path but finish in milliseconds; the
// benchmark's own tests use them.
var tinySizes = sizes{
	planPool: 2, planTasks: 300, dagLayers: 4, dagWidth: 4, dagDensity: 0.3, mcRuns: 50,
	durablePool: 2, durableTasks: 64, crashEvery: 48,
	syncPool: 2, syncTasks: 64, corruptShare: 0.05,
}

// Failure models: plan-eval plans long chains at a low rate, the exec
// workloads run shorter chains at a rate that makes failures frequent.
var (
	planModel = expectation.Model{Lambda: 0.01, Downtime: 0.5}
	execModel = expectation.Model{Lambda: 0.05, Downtime: 0.5}
)

const (
	runID    = "bench"
	replicas = 3
	// leaseTTL is long enough that a lease renews every few dozen
	// checkpoints rather than on every save.
	leaseTTL = 100
	// syncTimeout is exec-partition-sync's per-operation remote
	// deadline; exec-durable uses the remote store's default.
	syncTimeout = 0.25
	// maxInvocations bounds exec-durable's kill-and-resume loop.
	maxInvocations = 10_000
)

var (
	netBase     = netsim.Config{Latency: 0.01, Jitter: 0.005}
	retryPolicy = exec.ExpBackoff{Base: 0.25, Cap: 0.5, MaxAttempts: 4}
)

// workload is one benchmark workload after set-up.
type workload interface {
	// instances is the number of generated instances ops cycle through.
	instances() int
	// run performs one op on instance i, spanned when tr is non-nil,
	// and checks its outputs. An error means the op failed or a check
	// did not hold.
	run(i int, tr *tracer) (outcome, error)
}

// outcome is what one op produced.
type outcome struct {
	wall  time.Duration // the op itself, checks excluded
	alloc uint64        // bytes allocated by the op itself
	exact exact
	tally tally // per-op counters behind the per-layer metrics
}

// exact holds an op's deterministic outputs. They repeat bit for bit
// every time the same instance runs, traced or not.
type exact struct {
	bytesWritten    float64 // payload bytes the top of the stack accepted
	bytesStored     float64 // bytes resident in the backing stores at the end
	planExpected    float64 // mean analytic expected makespan of the op's plans
	virtualMakespan float64 // realized (or Monte-Carlo mean) virtual makespan
	hash            uint64  // journal hash (exec) or plan hash (plan-eval)
}

// tally accumulates named per-op counters.
type tally map[string]float64

func (t tally) add(name string, v float64) { t[name] += v }

// opClock times an op and counts what it allocates.
type opClock struct {
	start time.Time
	alloc uint64
}

func startClock() opClock {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return opClock{start: time.Now(), alloc: ms.TotalAlloc}
}

func (c opClock) stop(o *outcome) {
	o.wall = time.Since(c.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.alloc = ms.TotalAlloc - c.alloc
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"plan-eval", "exec-durable", "exec-partition-sync"}

// newWorkload generates a workload's instances from seed and runs
// whatever reference executions its checks compare against.
func newWorkload(name string, seed uint64, sz sizes) (workload, error) {
	switch name {
	case "plan-eval":
		return newPlanEval(seed, sz)
	case "exec-durable":
		return newExecDurable(seed, sz)
	case "exec-partition-sync":
		return newExecSync(seed, sz)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// instanceStream returns the stream instance i of a workload draws from.
func instanceStream(seed uint64, name string, i int) *rng.Stream {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rng.New(seed).Keyed(h.Sum64()).Keyed(uint64(i))
}

// agree reports whether two expected makespans match within 1e-9
// relative.
func agree(what string, got, want float64) error {
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		return fmt.Errorf("%s: solver expected %v, re-evaluation gives %v", what, got, want)
	}
	return nil
}

// ---- plan-eval -------------------------------------------------------

type planInstance struct {
	chain, dag *dag.Graph
	mcSeed     uint64
}

// planEval solves a long chain, simulates its plan and schedules a
// layered DAG; no store or executor runs.
type planEval struct {
	sz    sizes
	insts []planInstance
}

func newPlanEval(seed uint64, sz sizes) (*planEval, error) {
	p := &planEval{sz: sz}
	for i := 0; i < sz.planPool; i++ {
		r := instanceStream(seed, "plan-eval", i)
		chain, err := dag.Chain(sz.planTasks, dag.DefaultWeights(), r)
		if err != nil {
			return nil, err
		}
		g, err := dag.Layered(sz.dagLayers, sz.dagWidth, sz.dagDensity, dag.DefaultWeights(), r)
		if err != nil {
			return nil, err
		}
		p.insts = append(p.insts, planInstance{chain: chain, dag: g, mcSeed: r.Uint64()})
	}
	return p, nil
}

func (p *planEval) instances() int { return len(p.insts) }

func (p *planEval) run(i int, tr *tracer) (outcome, error) {
	in := p.insts[i]
	var o outcome
	clk := startClock()

	sp := tr.begin(kindCorePlan)
	cp, order, err := core.NewChainProblem(in.chain, planModel, 0)
	var res core.ChainResult
	var st core.DPStats
	if err == nil {
		res, st, err = core.SolveChainDPStats(cp)
	}
	tr.end(sp)
	if err != nil {
		return o, fmt.Errorf("planning chain: %w", err)
	}

	sp = tr.begin(kindSimMC)
	mc, err := sim.MonteCarloPlan(cp, res.CheckpointAfter, sim.ExponentialFactory(planModel.Lambda),
		sim.Options{Workers: 1}, p.sz.mcRuns, rng.New(in.mcSeed))
	tr.end(sp)
	if err != nil {
		return o, fmt.Errorf("simulating chain plan: %w", err)
	}

	sp = tr.begin(kindCoreDAG)
	dres, err := core.SolveDAG(in.dag, planModel, core.LastTaskCosts{}, nil)
	tr.end(sp)
	if err != nil {
		return o, fmt.Errorf("scheduling DAG: %w", err)
	}
	clk.stop(&o)

	want, err := core.EvaluatePlan(planModel, in.chain, core.Plan{Order: order, CheckpointAfter: res.CheckpointAfter}, 0)
	if err != nil {
		return o, err
	}
	if err := agree("chain plan", res.Expected, want); err != nil {
		return o, err
	}
	if want, err = core.EvaluatePlan(planModel, in.dag, dres.Plan(), 0); err != nil {
		return o, err
	}
	if err := agree("DAG plan", dres.Expected, want); err != nil {
		return o, err
	}
	mean, half := mc.Makespan.Mean(), mc.Makespan.CI(0.99)
	if math.Abs(mean-res.Expected) > 4*half {
		return o, fmt.Errorf("Monte-Carlo mean %v is more than 4×%v from the plan's expectation %v", mean, half, res.Expected)
	}

	h := fnv.New64a()
	for _, plan := range [][]bool{res.CheckpointAfter, dres.CheckpointAfter} {
		for _, ck := range plan {
			if ck {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
	}
	for _, id := range dres.Order {
		h.Write([]byte{byte(id), byte(id >> 8), byte(id >> 16)})
	}
	o.exact = exact{
		planExpected:    (res.Expected + dres.Expected) / 2,
		virtualMakespan: mean,
		hash:            h.Sum64(),
	}
	o.tally = tally{
		"core.oracle_evals": float64(st.Transitions),
		"sim.runs":          float64(mc.Runs),
		"sim.failures":      mc.Failures.Mean() * float64(mc.Runs),
	}
	return o, nil
}

// ---- the store stack shared by both exec workloads ---------------------

// backing is an op's persistent storage: the replicas' memory stores,
// their size counters and the quota ledger outlive every executor
// invocation of the op.
type backing struct {
	mems   []*store.MemStore
	sizes  []*sized
	ledger *store.QuotaLedger
}

func newBacking() *backing {
	b := &backing{ledger: store.NewQuotaLedger(store.Quota{}, nil)}
	for i := 0; i < replicas; i++ {
		m := store.NewMemStore()
		b.mems = append(b.mems, m)
		b.sizes = append(b.sizes, &sized{inner: m, lens: map[runSeq]int{}})
	}
	return b
}

// sized keeps the byte count of one backing MemStore as it changes:
// the store keeps a copy of every payload it accepts, so its resident
// bytes are the lengths of the last accepted payload per (run, seq),
// less deleted ones. Reading them back instead would copy every
// payload out after each op.
type sized struct {
	inner store.Store
	lens  map[runSeq]int
	bytes int
}

type runSeq struct {
	run string
	seq uint64
}

func (s *sized) Save(run string, seq uint64, payload []byte) error {
	err := s.inner.Save(run, seq, payload)
	if err == nil {
		k := runSeq{run, seq}
		s.bytes += len(payload) - s.lens[k]
		s.lens[k] = len(payload)
	}
	return err
}

func (s *sized) Delete(run string, seq uint64) error {
	err := s.inner.Delete(run, seq)
	if err == nil {
		k := runSeq{run, seq}
		s.bytes -= s.lens[k]
		delete(s.lens, k)
	}
	return err
}

func (s *sized) Load(run string, seq uint64) ([]byte, error) { return s.inner.Load(run, seq) }
func (s *sized) List(run string) ([]uint64, error)           { return s.inner.List(run) }
func (s *sized) Unwrap() store.Store                         { return s.inner }

// resident is the bytes all backing stores hold.
func (b *backing) resident() float64 {
	total := 0
	for _, s := range b.sizes {
		total += s.bytes
	}
	return float64(total)
}

// stack is one executor process's view of the backing:
// quota(lease(quorum W2/R2 over replicas × codec(remote(mem)))). The
// network, remote clients, quorum and lease session are built per
// invocation, as a restarted process rebuilds them.
type stack struct {
	top    *meter
	net    *netsim.Network
	quorum *store.QuorumStore
	lease  *store.LeaseStore
}

func (b *backing) stack(netCfg netsim.Config, timeout float64, tr *tracer) (*stack, error) {
	net := netsim.New(netCfg)
	reps := make([]store.Store, len(b.mems))
	for i, m := range b.sizes {
		remote := store.NewRemoteStore(wrap(tr, layerMem, m), net, netCfg,
			store.RemoteConfig{Remote: fmt.Sprintf("s%d", i), Timeout: timeout})
		reps[i] = wrap(tr, layerCodec, store.Checked(wrap(tr, layerRemote, remote)))
	}
	q, err := store.NewQuorumStore(reps, store.QuorumConfig{W: 2, R: 2})
	if err != nil {
		return nil, err
	}
	lease := store.NewLeaseStore(wrap(tr, layerQuorum, q), store.LeaseConfig{Holder: "bench", TTL: leaseTTL})
	quota := store.NewQuotaStore(b.ledger, wrap(tr, layerLease, lease))
	return &stack{top: &meter{inner: wrap(tr, layerQuota, quota)}, net: net, quorum: q, lease: lease}, nil
}

// execute runs one executor invocation on the stack, spanned as exec.
func (s *stack) execute(w *exec.Workload, srcSeed uint64, crashAt int, ad exec.AdaptiveOptions, tr *tracer) (*exec.Result, error) {
	src := exec.NewKeyedSource(failure.Exponential{Lambda: execModel.Lambda}, srcSeed, 1)
	sp := tr.begin(kindExec)
	res, err := exec.Execute(w, src, exec.Options{
		RunID: runID, Store: s.top, Downtime: execModel.Downtime,
		CrashAfterEvents: crashAt, Adaptive: &ad,
	})
	tr.end(sp)
	if res == nil {
		return nil, fmt.Errorf("executing: %w", err)
	}
	return res, err
}

// collect adds the stack's counters and one invocation's result to t.
func (s *stack) collect(t tally, res *exec.Result) {
	t.add("exec.calls", 1)
	t.add("exec.saves", float64(res.Saves))
	if res.Resumed {
		t.add("exec.resumes", 1)
		t.add("exec.restored_events", float64(res.RestoredEvents))
	}
	t.add("exec.syncs", float64(res.Syncs))
	t.add("exec.sync_failures", float64(res.SyncFailures))
	t.add("bytes_written", float64(s.top.bytes))
	t.add("exec.payload_n", float64(s.top.saves))
	t["exec.payload_bytes_max"] = max(t["exec.payload_bytes_max"], float64(s.top.max))
	qs := s.quorum.Stats()
	t.add("store.quorum.repairs", float64(qs.Repairs))
	t.add("store.quorum.hedged", float64(qs.Hedged))
	t.add("store.quorum.failures", float64(qs.QuorumFailures))
	ls := s.lease.Stats()
	t.add("store.lease.validations", float64(ls.Validations))
	t.add("store.lease.renewals", float64(ls.Renewals))
	t.add("store.lease.acquires", float64(ls.Acquires))
	ns := s.net.Stats()
	t.add("netsim.messages", float64(ns.Messages))
	t.add("netsim.lost", float64(ns.Lost))
	t.add("netsim.partitioned", float64(ns.Partitioned))
}

// finish records a completed run's final result in t and o.
func finish(o *outcome, t tally, res *exec.Result, planExpected, stored float64) {
	t.add("exec.journal_events", float64(len(res.Journal)))
	t.add("exec.useful", res.Useful)
	t.add("exec.makespan", res.Makespan)
	t.add("exec.store_overhead_virtual", res.StoreOverhead)
	t.add("exec.giveups", float64(res.GiveUps))
	t.add("store.mem.bytes_resident_end", stored)
	o.exact = exact{
		bytesWritten:    t["bytes_written"],
		bytesStored:     stored,
		planExpected:    planExpected,
		virtualMakespan: res.Makespan,
		hash:            res.Journal.Hash(),
	}
	o.tally = t
}

// meter counts the checkpoint payloads the top of the stack accepted.
type meter struct {
	inner store.Store
	saves int
	bytes int64
	max   int
}

func (m *meter) Save(run string, seq uint64, payload []byte) error {
	err := m.inner.Save(run, seq, payload)
	if err == nil {
		m.saves++
		m.bytes += int64(len(payload))
		m.max = max(m.max, len(payload))
	}
	return err
}

func (m *meter) Load(run string, seq uint64) ([]byte, error) { return m.inner.Load(run, seq) }
func (m *meter) List(run string) ([]uint64, error)           { return m.inner.List(run) }
func (m *meter) Delete(run string, seq uint64) error         { return m.inner.Delete(run, seq) }
func (m *meter) Unwrap() store.Store                         { return m.inner }

// chainInstance is one exec workload instance.
type chainInstance struct {
	g       *dag.Graph
	srcSeed uint64
	netCfg  netsim.Config
	refHash uint64       // journal hash the op must reproduce
	corrupt []corruption // exec-partition-sync only
}

// corruption overwrites one replica's copy of one seq with garbage.
type corruption struct {
	seq     uint64
	replica int
	seed    uint64
}

func newChainInstance(seed uint64, name string, i, tasks int) (chainInstance, *rng.Stream, error) {
	r := instanceStream(seed, name, i)
	g, err := dag.Chain(tasks, dag.DefaultWeights(), r)
	if err != nil {
		return chainInstance{}, nil, err
	}
	in := chainInstance{g: g, srcSeed: r.Uint64(), netCfg: netBase}
	in.netCfg.Seed = r.Uint64()
	return in, r, nil
}

// planChain plans a chain with the chain DP and compiles it for the
// executor.
func planChain(g *dag.Graph, tr *tracer, t tally) (*exec.Workload, float64, error) {
	sp := tr.begin(kindCorePlan)
	cp, _, err := core.NewChainProblem(g, execModel, 0)
	var res core.ChainResult
	var st core.DPStats
	if err == nil {
		res, st, err = core.SolveChainDPStats(cp)
	}
	tr.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("planning chain: %w", err)
	}
	t.add("core.oracle_evals", float64(st.Transitions))
	w, err := exec.NewChainWorkload(cp, res.CheckpointAfter)
	return w, res.Expected, err
}

// ---- exec-durable ----------------------------------------------------

// execDurable kills a checkpointed run every crashEvery journal events
// and resumes it from the store until it completes.
type execDurable struct {
	sz    sizes
	insts []chainInstance
}

var durableAdaptive = exec.AdaptiveOptions{Retry: retryPolicy}

func newExecDurable(seed uint64, sz sizes) (*execDurable, error) {
	d := &execDurable{sz: sz}
	for i := 0; i < sz.durablePool; i++ {
		in, _, err := newChainInstance(seed, "exec-durable", i, sz.durableTasks)
		if err != nil {
			return nil, err
		}
		// Reference: the same stack, uninterrupted.
		w, _, err := planChain(in.g, nil, tally{})
		if err != nil {
			return nil, err
		}
		st, err := newBacking().stack(in.netCfg, 0, nil)
		if err != nil {
			return nil, err
		}
		res, err := st.execute(w, in.srcSeed, 0, durableAdaptive, nil)
		if err != nil {
			return nil, fmt.Errorf("reference run %d: %w", i, err)
		}
		in.refHash = res.Journal.Hash()
		d.insts = append(d.insts, in)
	}
	return d, nil
}

func (d *execDurable) instances() int { return len(d.insts) }

func (d *execDurable) run(i int, tr *tracer) (outcome, error) {
	in := &d.insts[i]
	var o outcome
	t := tally{}
	clk := startClock()
	w, expected, err := planChain(in.g, tr, t)
	if err != nil {
		return o, err
	}
	b := newBacking()
	var res *exec.Result
	for inv := 1; ; inv++ {
		st, err := b.stack(in.netCfg, 0, tr)
		if err != nil {
			return o, err
		}
		res, err = st.execute(w, in.srcSeed, inv*d.sz.crashEvery, durableAdaptive, tr)
		if res != nil {
			st.collect(t, res)
		}
		if errors.Is(err, exec.ErrCrashed) && inv < maxInvocations {
			continue
		}
		if err != nil {
			return o, fmt.Errorf("invocation %d: %w", inv, err)
		}
		break
	}
	clk.stop(&o)

	if h := res.Journal.Hash(); h != in.refHash {
		return o, fmt.Errorf("resumed journal hash %016x, uninterrupted reference %016x", h, in.refHash)
	}
	finish(&o, t, res, expected, b.resident())
	return o, nil
}

// ---- exec-partition-sync ---------------------------------------------

// execSync runs a chain while a partition cuts replica s0 off, with
// anti-entropy passes at the executor's idle points, then corrupts a
// few replica copies and scrubs and syncs the run.
type execSync struct {
	sz    sizes
	insts []chainInstance
}

var syncAdaptive = exec.AdaptiveOptions{Retry: retryPolicy, DownAfter: 2, ProbeEvery: 2, SyncEvery: 3}

func newExecSync(seed uint64, sz sizes) (*execSync, error) {
	s := &execSync{sz: sz}
	for i := 0; i < sz.syncPool; i++ {
		in, r, err := newChainInstance(seed, "exec-partition-sync", i, sz.syncTasks)
		if err != nil {
			return nil, err
		}
		w, _, err := planChain(in.g, nil, tally{})
		if err != nil {
			return nil, err
		}
		free, err := exec.Execute(w, exec.NewKeyedSource(failure.Exponential{Lambda: execModel.Lambda}, in.srcSeed, 1),
			exec.Options{Downtime: execModel.Downtime})
		if err != nil {
			return nil, fmt.Errorf("store-free run %d: %w", i, err)
		}
		in.netCfg.Partitions = []netsim.Window{
			{Start: 0.3 * free.Makespan, End: 0.7 * free.Makespan, Isolated: []string{"s0"}},
		}

		// Reference: the same stack and partition without sync passes,
		// which never journal, so the op's journal must match it.
		b := newBacking()
		st, err := b.stack(in.netCfg, syncTimeout, nil)
		if err != nil {
			return nil, err
		}
		noSync := syncAdaptive
		noSync.SyncEvery = 0
		res, err := st.execute(w, in.srcSeed, 0, noSync, nil)
		if err != nil {
			return nil, fmt.Errorf("reference run %d: %w", i, err)
		}
		in.refHash = res.Journal.Hash()

		seqs, err := st.quorum.List(runID)
		if err != nil {
			return nil, fmt.Errorf("reference run %d: %w", i, err)
		}
		k := max(1, int(math.Round(sz.corruptShare*float64(len(seqs)))))
		for _, j := range r.Perm(len(seqs))[:k] {
			in.corrupt = append(in.corrupt, corruption{seq: seqs[j], replica: r.IntN(replicas), seed: r.Uint64()})
		}
		s.insts = append(s.insts, in)
	}
	return s, nil
}

func (s *execSync) instances() int { return len(s.insts) }

func (s *execSync) run(i int, tr *tracer) (outcome, error) {
	in := &s.insts[i]
	var o outcome
	t := tally{}
	clk := startClock()
	w, expected, err := planChain(in.g, tr, t)
	if err != nil {
		return o, err
	}
	b := newBacking()
	st, err := b.stack(in.netCfg, syncTimeout, tr)
	if err != nil {
		return o, err
	}
	res, err := st.execute(w, in.srcSeed, 0, syncAdaptive, tr)
	if err != nil {
		return o, err
	}
	if err := b.corrupt(in.corrupt); err != nil {
		return o, err
	}
	scrubber, okScrub := store.FindScrubber(st.top)
	syncer, okSync := store.FindSyncer(st.top)
	if !okScrub || !okSync {
		return o, errors.New("stack has no scrubber or syncer")
	}
	scrub, scrubErr := scrubber.ScrubRun(runID)
	sync, syncErr := syncer.SyncRun(runID)
	clk.stop(&o)
	st.collect(t, res)

	if h := res.Journal.Hash(); h != in.refHash {
		return o, fmt.Errorf("journal hash %016x, reference without sync passes %016x", h, in.refHash)
	}
	if scrubErr != nil || scrub.Repaired != len(in.corrupt) || scrub.Unrepairable != 0 {
		return o, fmt.Errorf("scrub repaired %d of %d corrupted copies, %d unrepairable: %v",
			scrub.Repaired, len(in.corrupt), scrub.Unrepairable, scrubErr)
	}
	if syncErr != nil || !sync.Converged() {
		return o, fmt.Errorf("final sync did not converge (%+v): %v", sync, syncErr)
	}
	if err := b.identical(); err != nil {
		return o, err
	}
	finish(&o, t, res, expected, b.resident())
	return o, nil
}

// corrupt overwrites the chosen replica copies with seeded garbage of
// the same length, directly in the backing stores.
func (b *backing) corrupt(cs []corruption) error {
	for _, c := range cs {
		data, err := b.mems[c.replica].Load(runID, c.seq)
		if err != nil {
			return fmt.Errorf("corrupting seq %d on s%d: %w", c.seq, c.replica, err)
		}
		r := rng.New(c.seed)
		for j := range data {
			data[j] = byte(r.Uint64())
		}
		if err := b.mems[c.replica].Save(runID, c.seq, data); err != nil {
			return err
		}
	}
	return nil
}

// identical checks that every replica holds the same seqs with the same
// bytes, and that each replica's size counter matches what it holds.
func (b *backing) identical() error {
	want, err := b.mems[0].List(runID)
	if err != nil {
		return err
	}
	for i, m := range b.mems[1:] {
		seqs, err := m.List(runID)
		if err != nil {
			return err
		}
		if !slices.Equal(seqs, want) {
			return fmt.Errorf("replica s%d holds seqs %v, s0 holds %v", i+1, seqs, want)
		}
	}
	held := make([]int, len(b.mems))
	for _, seq := range want {
		ref, err := b.mems[0].Load(runID, seq)
		if err != nil {
			return err
		}
		held[0] += len(ref)
		for i, m := range b.mems[1:] {
			got, err := m.Load(runID, seq)
			if err != nil {
				return err
			}
			if string(got) != string(ref) {
				return fmt.Errorf("replica s%d differs from s0 at seq %d after scrub and sync", i+1, seq)
			}
			held[i+1] += len(got)
		}
	}
	for i, m := range b.mems {
		lease, err := m.List(store.LeaseRun(runID))
		if err != nil {
			return err
		}
		for _, seq := range lease {
			data, err := m.Load(store.LeaseRun(runID), seq)
			if err != nil {
				return err
			}
			held[i] += len(data)
		}
		if got := held[i]; got != b.sizes[i].bytes {
			return fmt.Errorf("replica s%d holds %d bytes, its size counter says %d", i, got, b.sizes[i].bytes)
		}
	}
	return nil
}
