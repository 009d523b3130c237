package main

import (
	"slices"
)

// metric is one reported number with its unit and sample count.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// coverageMin is the least share of a traced op's wall time its
// top-level spans must cover: the untraced rest is the benchmark's own
// glue (building stores, seeding sources, corrupting copies).
const coverageMin = 0.9

// percentile interpolates linearly between the closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func wallMs(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.ms
	}
	return out
}

// exactMean averages one exact output over the pool's instances.
func (r *result) exactMean(field func(*exact) float64) (float64, int) {
	sum, n := 0.0, 0
	for _, e := range r.exact {
		if e != nil {
			sum += field(e)
			n++
		}
	}
	return ratio(sum, float64(n)), n
}

func (r *result) coverageOK() bool {
	return !r.cfg.trace || median(r.coverage) >= coverageMin
}

// endToEnd is the -trace 0 metric set BENCHMARK.json declares.
func endToEnd(r *result) []metric {
	walls := wallMs(r.untraced)
	n := len(walls)
	var alloc float64
	for _, s := range r.untraced {
		alloc += float64(s.alloc)
	}
	planExp, pool := r.exactMean(func(e *exact) float64 { return e.planExpected })
	virt, _ := r.exactMean(func(e *exact) float64 { return e.virtualMakespan })
	return []metric{
		{"setup_s", "s", median(r.setupS), len(r.setupS)},
		{"op_ms_p50", "ms", median(walls), n},
		{"op_ms_p90", "ms", percentile(walls, 90), n},
		{"ops_per_s", "1/s", ratio(float64(n), r.loop.Seconds()), n},
		{"alloc_mb_per_op", "MB", ratio(alloc, float64(n)) / (1 << 20), n},
		{"peak_rss_mb", "MB", r.peakRSSMB, 1},
		{"plan_expected_mean", "vtime", planExp, pool},
		{"virtual_makespan_mean", "vtime", virt, pool},
	}
}

// exactExtras are end-to-end metrics that can read 0 (plan-eval
// persists nothing, and a healthy run fails no op), so BENCHMARK.json
// carries them as per-layer metrics, where a zero is allowed.
func exactExtras(r *result) []metric {
	written, pool := r.exactMean(func(e *exact) float64 { return e.bytesWritten })
	stored, _ := r.exactMean(func(e *exact) float64 { return e.bytesStored })
	return []metric{
		{"bytes_written_per_op", "B", written, pool},
		{"bytes_stored_end", "B", stored, pool},
		{"fail_ratio", "ratio", ratio(float64(r.failed), float64(r.attempted)), r.attempted},
	}
}

// layerMetrics is the -trace 1 metric set: per-op means over the traced
// ops unless the name says otherwise.
func layerMetrics(r *result) []metric {
	tr, t := r.tr, r.layer
	ops := float64(tr.ops)
	n := tr.ops
	per := func(v float64) float64 { return ratio(v, ops) }
	msOf := func(ns int64) float64 { return float64(ns) / 1e6 }
	k := func(kind spanKind) kindTotals { return tr.kinds[kind] }
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name, unit, v, n}) }

	add("core.plan_ms", "ms", per(msOf(k(kindCorePlan).durNs)))
	add("core.oracle_evals", "count", per(t["core.oracle_evals"]))
	add("core.dag_plan_ms", "ms", per(msOf(k(kindCoreDAG).durNs)))

	add("sim.mc_ms", "ms", per(msOf(k(kindSimMC).durNs)))
	add("sim.runs", "count", per(t["sim.runs"]))
	add("sim.ns_per_run", "ns", ratio(float64(k(kindSimMC).durNs), t["sim.runs"]))
	add("sim.failures_per_run", "count", ratio(t["sim.failures"], t["sim.runs"]))

	ex := k(kindExec)
	add("exec.calls", "count", per(t["exec.calls"]))
	add("exec.self_ms", "ms", per(msOf(ex.selfNs)))
	add("exec.persist_share", "ratio", ratio(float64(ex.durNs-ex.selfNs), float64(ex.durNs)))
	add("exec.saves", "count", per(t["exec.saves"]))
	add("exec.resumes", "count", per(t["exec.resumes"]))
	add("exec.restored_events", "count", per(t["exec.restored_events"]))
	add("exec.journal_events", "count", per(t["exec.journal_events"]))
	add("exec.payload_bytes_mean", "B", ratio(t["bytes_written"], t["exec.payload_n"]))
	add("exec.payload_bytes_max", "B", per(t["exec.payload_bytes_max"]))
	add("exec.useful_ratio", "ratio", ratio(t["exec.useful"], t["exec.makespan"]))
	add("exec.store_overhead_virtual", "vtime", per(t["exec.store_overhead_virtual"]))
	add("exec.giveups", "count", per(t["exec.giveups"]))
	add("exec.syncs", "count", per(t["exec.syncs"]))
	add("exec.sync_failures", "count", per(t["exec.sync_failures"]))

	for l := layer(0); l < numLayers; l++ {
		prefix := "store." + layerNames[l] + "."
		for op := opSave; op <= opList; op++ {
			kt := k(storeKind(l, op))
			add(prefix+storeOpNames[op]+"_n", "count", per(float64(kt.n)))
			add(prefix+storeOpNames[op]+"_self_ms", "ms", per(msOf(kt.selfNs)))
		}
		add(prefix+"delete_n", "count", per(float64(k(storeKind(l, opDelete)).n)))
		c := tr.layers[l]
		add(prefix+"err_n", "count", per(float64(c.errN)))
		add(prefix+"bytes_out", "B", per(float64(c.bytesOut)))
		add(prefix+"bytes_in", "B", per(float64(c.bytesIn)))
	}

	add("store.quorum.fanout", "ratio", ratio(float64(k(storeKind(layerCodec, opSave)).n), float64(k(storeKind(layerQuorum, opSave)).n)))
	add("store.quorum.repairs", "count", per(t["store.quorum.repairs"]))
	add("store.quorum.hedged", "count", per(t["store.quorum.hedged"]))
	add("store.quorum.failures", "count", per(t["store.quorum.failures"]))
	add("store.lease.validations", "count", per(t["store.lease.validations"]))
	add("store.lease.renewals", "count", per(t["store.lease.renewals"]))
	add("store.lease.acquires", "count", per(t["store.lease.acquires"]))

	sc := tr.sync
	add("store.sync.passes", "count", per(float64(k(kindSync).n)))
	add("store.sync.ms", "ms", per(msOf(k(kindSync).durNs)))
	add("store.sync.seqs_visited", "count", per(float64(sc.seqsVisited)))
	add("store.sync.copied", "count", per(float64(sc.copied)))
	add("store.sync.useful_ratio", "ratio", ratio(float64(sc.copied), float64(sc.pairs)))
	add("store.scrub.ms", "ms", per(msOf(k(kindScrub).durNs)))
	add("store.scrub.checked", "count", per(float64(sc.checked)))
	add("store.scrub.repaired", "count", per(float64(sc.repaired)))

	add("store.mem.bytes_resident_end", "B", per(t["store.mem.bytes_resident_end"]))

	add("netsim.messages", "count", per(t["netsim.messages"]))
	add("netsim.lost", "count", per(t["netsim.lost"]))
	add("netsim.partitioned", "count", per(t["netsim.partitioned"]))
	add("netsim.msgs_per_save", "ratio", ratio(t["netsim.messages"], float64(k(storeKind(layerQuota, opSave)).n)))

	untracedP50 := median(wallMs(r.untraced))
	out = append(out,
		metric{"trace.overhead_ratio", "ratio", ratio(median(wallMs(r.traced)), untracedP50), len(r.traced)},
		metric{"trace.coverage", "ratio", median(r.coverage), len(r.coverage)},
	)
	return append(out, exactExtras(r)...)
}
