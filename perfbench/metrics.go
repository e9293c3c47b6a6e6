package main

// metricDef names one reported metric and its unit. The lists below are the
// benchmark's contract with BENCHMARK.json; the tests hold the two equal.
type metricDef struct{ name, unit string }

// endToEnd is printed by every untraced run, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"maxrss_mb", "MB"},
	{"slot_p50_ms", "ms"},
	{"slot_p90_ms", "ms"},
	{"cpu_ms_per_slot", "ms"},
	{"goodput_gbps", "Gbps"},
	{"mean_ct_s", "s"},
	{"completed_frac", "frac"},
	{"submit_p50_ms", "ms"},
	{"submit_p99_ms", "ms"},
	{"submit_ok_frac", "frac"},
}

// perLayer is printed by every traced run. A workload that does not
// exercise a layer reports its metrics as 0 (see README.md for which
// workload feeds which metric).
var perLayer = []metricDef{
	{"optical.newstate_s", "s"},
	{"optical.provision_ms_p50", "ms"},
	{"optical.provision_ms_p90", "ms"},
	{"optical.oor_share_first", "frac"},
	{"optical.oor_share_last", "frac"},
	{"optical.built_ratio", "frac"},
	{"alloc.throughput_us_p50", "us"},
	{"alloc.greedy_us_p50", "us"},
	{"alloc.demands_p50", "count"},
	{"topology.diff_us_p50", "us"},
	{"topology.clone_us_p50", "us"},
	{"core.new_s", "s"},
	{"core.search_ms_p50", "ms"},
	{"core.search_ms_p90", "ms"},
	{"core.iterations_mean", "count"},
	{"core.evals_mean", "count"},
	{"core.accept_ratio", "frac"},
	{"core.provision_hit_ratio", "frac"},
	{"core.worker_balance", "frac"},
	{"core.churn_mean", "count"},
	{"sim.other_ms_p50", "ms"},
	{"sim.active_p50", "count"},
	{"update.plan_us_p50", "us"},
	{"update.rounds_mean", "count"},
	{"update.ops_mean", "count"},
	{"update.err_share", "frac"},
	{"controlplane.tick_other_ms_p50", "ms"},
	{"controlplane.submit_p99_in_tick_ms", "ms"},
	{"controlplane.submit_p99_idle_ms", "ms"},
	{"controlplane.submit_in_tick_share", "frac"},
	{"controlplane.submit_fail_frac", "frac"},
	{"controlplane.admit_batch_mean", "count"},
	{"controlplane.overloads", "count"},
	{"controlplane.push_failures", "count"},
	{"controlplane.rates_lag_ms_p50", "ms"},
	{"controlplane.resync_ms", "ms"},
	{"store.entries_per_tick", "count"},
	{"store.snapshot_prefix_ms", "ms"},
	{"go.allocs_per_slot", "count"},
	{"go.bytes_per_slot", "B"},
	{"go.gc_cpu_frac", "frac"},
	{"go.heap_peak_mb", "MB"},
	{"bench.gen_late_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

// complete fills every metric of defs that m lacks with 0.
func (m metricSet) complete(defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.name]; !ok {
			m.set(d.name, 0, d.unit)
		}
	}
}
