package main

import "owan/internal/core"

// searchAgg accumulates the core.SearchStats of every planned slot.
type searchAgg struct {
	search, iters, evals, churn             []float64
	accepted, iterations, provHits, provAll float64
	meanWorkerEvals, maxWorkerEvals         float64
}

func (a *searchAgg) add(s core.SearchStats) {
	a.search = append(a.search, ms(s.Elapsed))
	a.iters = append(a.iters, float64(s.Iterations))
	a.churn = append(a.churn, float64(s.Churn))
	a.accepted += float64(s.Accepted)
	a.iterations += float64(s.Iterations)
	a.provHits += float64(s.ProvisionHits)
	a.provAll += float64(s.ProvisionHits + s.ProvisionMisses)
	n, hi := 0, 0
	for _, e := range s.WorkerEvals {
		n += e
		hi = max(hi, e)
	}
	a.evals = append(a.evals, float64(n))
	if len(s.WorkerEvals) > 0 {
		a.meanWorkerEvals += float64(n) / float64(len(s.WorkerEvals))
		a.maxWorkerEvals += float64(hi)
	}
}

func (a *searchAgg) report(m metricSet) {
	m.set("core.search_ms_p50", quantile(a.search, 0.5), "ms")
	m.set("core.search_ms_p90", quantile(a.search, 0.9), "ms")
	m.set("core.iterations_mean", mean(a.iters), "count")
	m.set("core.evals_mean", mean(a.evals), "count")
	m.set("core.accept_ratio", ratio(a.accepted, a.iterations), "frac")
	m.set("core.provision_hit_ratio", ratio(a.provHits, a.provAll), "frac")
	// Mean over max evaluations per worker: 1 when the pool splits evenly.
	m.set("core.worker_balance", ratio(a.meanWorkerEvals, a.maxWorkerEvals), "frac")
	m.set("core.churn_mean", mean(a.churn), "count")
}

// updateAgg accumulates the consistent-update plans of the planned slots.
type updateAgg struct{ plans, rounds, ops, errs float64 }

func (a *updateAgg) add(rounds, ops int, failed bool) {
	a.plans++
	a.rounds += float64(rounds)
	a.ops += float64(ops)
	if failed {
		a.errs++
	}
}

func (a *updateAgg) report(m metricSet) {
	m.set("update.rounds_mean", ratio(a.rounds, a.plans), "count")
	m.set("update.ops_mean", ratio(a.ops, a.plans), "count")
	m.set("update.err_share", ratio(a.errs, a.plans), "frac")
}

// reportGo sets the go.* metrics of a traced loop over slots slots from the
// runtime samples taken around it, less what the probes allocated.
func reportGo(m metricSet, g0, g1 goStats, slots float64, probeAllocs, probeBytes, heapPeak uint64) {
	m.set("go.allocs_per_slot", float64(g1.allocs-g0.allocs-probeAllocs)/slots, "count")
	m.set("go.bytes_per_slot", float64(g1.bytes-g0.bytes-probeBytes)/slots, "B")
	m.set("go.gc_cpu_frac", ratio(g1.gcCPU-g0.gcCPU, g1.busyCPU-g0.busyCPU), "frac")
	m.set("go.heap_peak_mb", float64(heapPeak)/(1<<20), "MB")
}
