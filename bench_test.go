// Package owan's repository-level benchmarks regenerate every table and
// figure of the paper's evaluation (§5) at a reduced scale, reporting the
// headline shape metrics via b.ReportMetric so `go test -bench=.` doubles
// as a reproduction smoke test. cmd/owan-bench runs the same generators at
// full scale.
package owan

import (
	"math"
	"runtime"
	"testing"

	"owan/internal/alloc"
	"owan/internal/core"
	"owan/internal/experiments"
	"owan/internal/figdata"
	"owan/internal/metrics"
	"owan/internal/optical"
	"owan/internal/sim"
	"owan/internal/topology"
	"owan/internal/transfer"
	"owan/internal/workload"
)

// benchScale trims the quick scale further so a full -bench=. sweep stays
// in the minutes range.
func benchScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.ISPSites = 15
	sc.InterDCSites = 12
	sc.HorizonSlots = 3
	sc.OwanIterations = 120
	sc.Seeds = 1
	return sc
}

// meanImprovement averages the "vs-*-avg" series of a Fig7-style figure.
func meanImprovement(f *figdata.Figure, suffix string) float64 {
	sum, n := 0.0, 0
	for _, name := range f.SeriesNames() {
		if len(name) < len(suffix) || name[len(name)-len(suffix):] != suffix {
			continue
		}
		for _, x := range f.Xs() {
			if y, ok := f.Get(name, x); ok && !math.IsInf(y, 1) && !math.IsNaN(y) {
				sum += y
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func benchFig7(b *testing.B, topo experiments.TopoKind) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		figs, err := experiments.Fig7(topo, sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(meanImprovement(figs[0], "-avg"), "x-improvement-avg")
		b.ReportMetric(meanImprovement(figs[0], "-p95"), "x-improvement-p95")
	}
}

func BenchmarkFig7Internet2(b *testing.B) { benchFig7(b, experiments.Internet2) }
func BenchmarkFig7ISP(b *testing.B)       { benchFig7(b, experiments.ISP) }
func BenchmarkFig7InterDC(b *testing.B)   { benchFig7(b, experiments.InterDC) }

func BenchmarkFig8Makespan(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		total, n := 0.0, 0
		for _, topo := range experiments.AllTopos {
			f, err := experiments.Fig8(topo, sc)
			if err != nil {
				b.Fatal(err)
			}
			for _, name := range f.SeriesNames() {
				for _, x := range f.Xs() {
					if y, ok := f.Get(name, x); ok && !math.IsInf(y, 1) {
						total += y
						n++
					}
				}
			}
		}
		b.ReportMetric(total/float64(n), "x-makespan-improvement")
	}
}

func benchFig9(b *testing.B, topo experiments.TopoKind) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		figs, err := experiments.Fig9(topo, sc)
		if err != nil {
			b.Fatal(err)
		}
		// Report Owan's and the best alternative's deadline-met percentage
		// averaged over the sigma sweep.
		owan, best := 0.0, 0.0
		n := 0.0
		for _, sigma := range experiments.DeadlineFactors {
			if y, ok := figs[0].Get("owan", sigma); ok {
				owan += y
				n++
			}
			alt := 0.0
			for _, name := range figs[0].SeriesNames() {
				if name == "owan" {
					continue
				}
				if y, ok := figs[0].Get(name, sigma); ok && y > alt {
					alt = y
				}
			}
			best += alt
		}
		b.ReportMetric(owan/n, "pct-owan-met")
		b.ReportMetric(best/n, "pct-best-baseline-met")
	}
}

func BenchmarkFig9Internet2(b *testing.B) { benchFig9(b, experiments.Internet2) }
func BenchmarkFig9ISP(b *testing.B)       { benchFig9(b, experiments.ISP) }
func BenchmarkFig9InterDC(b *testing.B)   { benchFig9(b, experiments.InterDC) }

func BenchmarkFig10aJointVsGreedy(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig10a(sc)
		if err != nil {
			b.Fatal(err)
		}
		// Average throughput ratio across the run.
		sumSA, sumGreedy := 0.0, 0.0
		for _, x := range f.Xs() {
			if y, ok := f.Get("simulated-annealing", x); ok {
				sumSA += y
			}
			if y, ok := f.Get("greedy", x); ok {
				sumGreedy += y
			}
		}
		if sumGreedy > 0 {
			b.ReportMetric(sumSA/sumGreedy, "x-joint-over-greedy")
		}
	}
}

func BenchmarkFig10bConsistentUpdate(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig10b(sc)
		if err != nil {
			b.Fatal(err)
		}
		minOf := func(series string) float64 {
			m := math.Inf(1)
			for _, x := range f.Xs() {
				if y, ok := f.Get(series, x); ok && y < m {
					m = y
				}
			}
			return m
		}
		b.ReportMetric(minOf("consistent"), "gbps-min-consistent")
		b.ReportMetric(minOf("one-shot"), "gbps-min-oneshot")
	}
}

// BenchmarkColdStartISP200 measures the one-time setup of a controller core
// at the 200-site stress scale: core.New on a freshly built network, so the
// route tables (DESIGN.md §16) are built cold every op rather than served
// from the per-network cache.
func BenchmarkColdStartISP200(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net := topology.ISP(200, 8, 1)
		b.StartTimer()
		coldStartSink = core.New(core.Config{
			Net: net, Policy: transfer.SJF, Seed: 11,
			MaxIterations: 30, BatchSize: 8, Workers: runtime.GOMAXPROCS(0),
		})
	}
}

var coldStartSink *core.Owan

// BenchmarkSimSlotISP200 measures the warm end-to-end per-slot pipeline at
// the 200-site stress scale with the consistent-update planner on: annealing
// search, rate allocation, slot application, and the flat update schedule
// (plus its throughput timeline) every slot. The route tables are built
// before the timer starts, so the one-time setup BenchmarkColdStartISP200
// measures stays out of ns/slot; one op is one full short simulation, so
// the per-op core construction and workload replay amortize over its slots.
func BenchmarkSimSlotISP200(b *testing.B) {
	net := topology.ISP(200, 8, 1)
	reqs, err := workload.Generate(workload.Config{
		Sites: net.NumSites(), MeanSizeGbits: 2 * workload.TB,
		TotalDemandGbits: 400 * workload.TB, Load: 1, DurationSlots: 3, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	optical.NewState(net) // warm the route-table cache
	slots := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := core.New(core.Config{
			Net: net, Policy: transfer.SJF, Seed: 11,
			MaxIterations: 30, BatchSize: 8, Workers: runtime.GOMAXPROCS(0),
		})
		sched := &sim.OwanScheduler{O: o, SlotSeconds: experiments.SlotSeconds}
		res, err := sim.Run(sim.Config{
			Net: net, Initial: topology.InitialTopology(net),
			Scheduler: sched, Requests: reqs,
			SlotSeconds: experiments.SlotSeconds, MaxSlots: 60,
			ReconfigSeconds: 4,
			PlanUpdates:     true,
		})
		sched.Close()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Updates) != res.Slots {
			b.Fatalf("planner covered %d of %d slots", len(res.Updates), res.Slots)
		}
		slots += res.Slots
	}
	if slots > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(slots), "ns/slot")
	}
	b.ReportMetric(float64(slots)/float64(b.N), "slots/op")
}

func BenchmarkFig10cBreakdown(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig10c(sc)
		if err != nil {
			b.Fatal(err)
		}
		// Report normalized completion time of each control level at load 1.
		if y, ok := f.Get("rate", 1); ok {
			b.ReportMetric(y, "norm-ct-rate")
		}
		if y, ok := f.Get("+rout.", 1); ok {
			b.ReportMetric(y, "norm-ct-routing")
		}
		if y, ok := f.Get("+topo.", 1); ok {
			b.ReportMetric(y, "norm-ct-topology")
		}
	}
}

func BenchmarkFig10dSARuntime(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Fig10d(sc)
		if err != nil {
			b.Fatal(err)
		}
		if y, ok := f.Get("owan", 0.02); ok {
			b.ReportMetric(y, "sec-avg-ct-20ms")
		}
		if y, ok := f.Get("owan", 5.12); ok {
			b.ReportMetric(y, "sec-avg-ct-5120ms")
		}
	}
}

func BenchmarkValidationEmuVsSim(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		f, err := experiments.Validation(sc)
		if err != nil {
			b.Fatal(err)
		}
		if y, ok := f.Get("divergence-pct", 0); ok {
			b.ReportMetric(y, "pct-divergence")
		}
	}
}

func BenchmarkFailureRecovery(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		f, err := experiments.FailureRecovery(sc)
		if err != nil {
			b.Fatal(err)
		}
		// Post-failure goodput ratio (owan / swan) averaged over the slots
		// after the cut.
		failT := float64(sc.HorizonSlots/2) * experiments.SlotSeconds
		var owan, swan float64
		for _, x := range f.Xs() {
			if x < failT {
				continue
			}
			if y, ok := f.Get("owan", x); ok {
				owan += y
			}
			if y, ok := f.Get("swan", x); ok {
				swan += y
			}
		}
		if swan > 0 {
			b.ReportMetric(owan/swan, "x-postfailure-goodput")
		}
	}
}

// --- Parallel annealing engine (ISSUE 1 tentpole) ---

// benchAnneal measures raw annealing throughput (iterations per second) on
// the full 40-site ISP topology. All variants share (Seed, BatchSize) so
// they walk the identical chain; only the worker count differs. MaxChurn is
// disabled so every iteration pays an energy evaluation (churn-rejected
// moves are nearly free and would mask the speedup).
func benchAnneal(b *testing.B, workers int) {
	net := topology.ISP(40, 10, 1)
	ts := ablationWorkload(b, net)
	cfg := core.Config{
		Net: net, Policy: transfer.SJF, Seed: 11,
		MaxIterations: 160, BatchSize: 8, Workers: workers, MaxChurn: -1,
	}
	b.ResetTimer()
	iters := 0
	for i := 0; i < b.N; i++ {
		o := core.New(cfg)
		st := o.ComputeNetworkState(topology.InitialTopology(net), ts, 0, experiments.SlotSeconds)
		iters += st.Stats.Iterations
		o.Close()
	}
	b.ReportMetric(float64(iters)/b.Elapsed().Seconds(), "anneal-iters/s")
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
}

func BenchmarkAnnealSerial(b *testing.B) { benchAnneal(b, 1) }

// BenchmarkAnnealParallel is the worker-pool configuration: the same chain
// as AnnealSerial, candidate energies spread over GOMAXPROCS workers.
func BenchmarkAnnealParallel(b *testing.B) { benchAnneal(b, runtime.GOMAXPROCS(0)) }

// BenchmarkAnnealISP100 runs the annealing search on a 100-site ISP — past
// the single-word bitset limit — with one long-lived controller reused
// across iterations, the way a scheduler drives consecutive slots. Warm
// iterations exercise the persistent evaluator: re-provisions of previously
// seen candidate topologies are answered by the cross-slot provision cache.
func BenchmarkAnnealISP100(b *testing.B) {
	net := topology.ISP(100, 10, 1)
	ts := ablationWorkload(b, net)
	cfg := core.Config{
		Net: net, Policy: transfer.SJF, Seed: 11,
		MaxIterations: 60, BatchSize: 8, Workers: runtime.GOMAXPROCS(0),
		MaxChurn: -1,
	}
	o := core.New(cfg)
	defer o.Close()
	start := topology.InitialTopology(net)
	o.ComputeNetworkState(start, ts, 0, experiments.SlotSeconds) // warm the evaluator
	b.ResetTimer()
	iters, pHits, pMisses := 0, 0, 0
	for i := 0; i < b.N; i++ {
		st := o.ComputeNetworkState(start, ts, 0, experiments.SlotSeconds)
		iters += st.Stats.Iterations
		pHits += st.Stats.ProvisionHits
		pMisses += st.Stats.ProvisionMisses
	}
	b.ReportMetric(float64(iters)/b.Elapsed().Seconds(), "anneal-iters/s")
	if n := pHits + pMisses; n > 0 {
		b.ReportMetric(100*float64(pHits)/float64(n), "provision-hit-%")
	}
}

// BenchmarkAnnealISP200 is AnnealISP100 at the 200-site scale the frontier-
// compacted engines target (four 64-bit mask words): one long-lived
// controller, warm persistent evaluator, cross-slot provision cache. The
// iteration budget is halved against ISP100 so a full -bench sweep stays in
// the minutes range; anneal-iters/s is the comparable figure.
func BenchmarkAnnealISP200(b *testing.B) {
	net := topology.ISP(200, 10, 1)
	ts := ablationWorkload(b, net)
	cfg := core.Config{
		Net: net, Policy: transfer.SJF, Seed: 11,
		MaxIterations: 30, BatchSize: 8, Workers: runtime.GOMAXPROCS(0),
		MaxChurn: -1,
	}
	o := core.New(cfg)
	defer o.Close()
	start := topology.InitialTopology(net)
	o.ComputeNetworkState(start, ts, 0, experiments.SlotSeconds) // warm the evaluator
	b.ResetTimer()
	iters, pHits, pMisses := 0, 0, 0
	for i := 0; i < b.N; i++ {
		st := o.ComputeNetworkState(start, ts, 0, experiments.SlotSeconds)
		iters += st.Stats.Iterations
		pHits += st.Stats.ProvisionHits
		pMisses += st.Stats.ProvisionMisses
	}
	b.ReportMetric(float64(iters)/b.Elapsed().Seconds(), "anneal-iters/s")
	if n := pHits + pMisses; n > 0 {
		b.ReportMetric(100*float64(pHits)/float64(n), "provision-hit-%")
	}
}

// --- Warm-start + replica exchange (ISSUE 6 tentpole) ---

// benchAnnealTempered measures the tempering engine on the 40-site ISP:
// one persistent controller driven across b.N slots, the way a scheduler
// does, so warm starts see the previous slot's accepted energy. Reports
// chain throughput plus the exchange/early-exit telemetry.
func benchAnnealTempered(b *testing.B, replicas int, warm bool) {
	net := topology.ISP(40, 10, 1)
	ts := ablationWorkload(b, net)
	cfg := core.Config{
		Net: net, Policy: transfer.SJF, Seed: 11,
		// Let the temperature schedule (and the early exit), not the
		// iteration cap, end each search: warm-started slots run genuinely
		// shorter schedules and that is the effect being measured.
		MaxIterations: 2000, BatchSize: 8, Workers: runtime.GOMAXPROCS(0),
		MaxChurn: -1, Replicas: replicas, WarmStart: warm,
	}
	o := core.New(cfg)
	defer o.Close()
	start := topology.InitialTopology(net)
	o.ComputeNetworkState(start, ts, 0, experiments.SlotSeconds) // warm the evaluator
	b.ResetTimer()
	iters, attempts, exchanges, early := 0, 0, 0, 0
	energy := 0.0
	for i := 0; i < b.N; i++ {
		st := o.ComputeNetworkState(start, ts, i+1, experiments.SlotSeconds)
		iters += st.Stats.Iterations
		attempts += st.Stats.ExchangeAttempts
		exchanges += st.Stats.Exchanges
		if st.Stats.EarlyExit {
			early++
		}
		energy = st.Stats.BestEnergy
	}
	b.ReportMetric(float64(iters)/b.Elapsed().Seconds(), "anneal-iters/s")
	b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
	b.ReportMetric(energy, "gbps-energy")
	if attempts > 0 {
		b.ReportMetric(100*float64(exchanges)/float64(attempts), "exchange-%")
	}
	b.ReportMetric(100*float64(early)/float64(b.N), "early-exit-%")
}

// BenchmarkAnnealTemperedR4 is the full tentpole configuration: a 4-rung
// ladder with warm-started schedules across slots.
func BenchmarkAnnealTemperedR4(b *testing.B) { benchAnnealTempered(b, 4, true) }

// BenchmarkAnnealTemperedR4Cold isolates the ladder from the warm start:
// every slot runs the full cold schedule on 4 rungs.
func BenchmarkAnnealTemperedR4Cold(b *testing.B) { benchAnnealTempered(b, 4, false) }

// BenchmarkAnnealTemperedWarmOnly isolates the warm start from the ladder:
// a single chain whose repeated-demand slots start low and early-exit.
func BenchmarkAnnealTemperedWarmOnly(b *testing.B) { benchAnnealTempered(b, 1, true) }

// TestMemoizedCacheNoRegression bounds the allocations of a warm slot on the
// memoization-friendly workload BenchmarkAnnealMemoized runs, driven on one
// persistent controller the way a scheduler does. The energy memo keeps its
// map across slots and only accepted candidates are materialized, so a warm
// slot allocates the memo's key strings, those states and the slot's final
// plan: about 2,100 objects on this workload. A LinkSet clone per proposal
// would exceed the bound.
func TestMemoizedCacheNoRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a measured benchmark")
	}
	net := topology.Internet2(8)
	var ts []*transfer.Transfer
	reqs, err := workload.Generate(workload.Config{
		Sites:            net.NumSites(),
		MeanSizeGbits:    2 * workload.TB,
		TotalDemandGbits: 800 * workload.TB,
		Load:             1,
		DurationSlots:    1,
		Seed:             7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		ts = append(ts, transfer.NewTransfer(r))
	}
	var iters, hits int
	res := testing.Benchmark(func(b *testing.B) {
		o := core.New(core.Config{
			Net: net, Policy: transfer.SJF, Seed: 11,
			MaxIterations: 400, MaxChurn: -1,
		})
		defer o.Close()
		start := topology.InitialTopology(net)
		o.ComputeNetworkState(start, ts, 0, experiments.SlotSeconds)
		b.ReportAllocs()
		b.ResetTimer()
		iters, hits = 0, 0
		for i := 0; i < b.N; i++ {
			st := o.ComputeNetworkState(start, ts, 0, experiments.SlotSeconds)
			iters += st.Stats.Iterations
			hits += st.Stats.CacheHits
		}
	})
	if res.N == 0 || iters == 0 {
		t.Fatal("benchmark did not run")
	}
	if hits == 0 {
		t.Fatal("no energy-memo hits; the workload lost its power")
	}
	const maxAllocs = 2500
	if res.AllocsPerOp() > maxAllocs {
		t.Errorf("warm slot allocates %d objects, want <= %d", res.AllocsPerOp(), maxAllocs)
	}
	t.Logf("warm slot: %v ns/op, %d allocs/op, %d iterations and %d memo hits per slot",
		res.NsPerOp(), res.AllocsPerOp(), iters/res.N, hits/res.N)
}

// BenchmarkAnnealMemoized runs the search on a small topology whose swap
// moves frequently revisit states while cooling, and reports the share of
// candidate energies the per-search memo served.
func BenchmarkAnnealMemoized(b *testing.B) {
	net := topology.Internet2(8)
	ts := ablationWorkload(b, net)
	cfg := core.Config{
		Net: net, Policy: transfer.SJF, Seed: 11,
		MaxIterations: 400, MaxChurn: -1,
	}
	b.ResetTimer()
	hits := 0
	var evals []int
	for i := 0; i < b.N; i++ {
		o := core.New(cfg)
		st := o.ComputeNetworkState(topology.InitialTopology(net), ts, 0, experiments.SlotSeconds)
		hits += st.Stats.CacheHits
		evals = append(evals, st.Stats.WorkerEvals...)
		o.Close()
	}
	b.ReportMetric(100*metrics.ComputeSearchEfficiency(hits, evals).HitRate, "memo-hit-%")
}

// --- Ablation benches (DESIGN.md §4) ---

// ablationWorkload builds a stable transfer set on the ISP topology.
func ablationWorkload(b *testing.B, net *topology.Network) []*transfer.Transfer {
	b.Helper()
	reqs, err := workload.Generate(workload.Config{
		Sites:            net.NumSites(),
		MeanSizeGbits:    2 * workload.TB,
		TotalDemandGbits: 800 * workload.TB,
		Load:             1,
		DurationSlots:    1,
		Seed:             7,
	})
	if err != nil {
		b.Fatal(err)
	}
	var ts []*transfer.Transfer
	for _, r := range reqs {
		ts = append(ts, transfer.NewTransfer(r))
	}
	return ts
}

// runSA runs one annealing search with the given config tweaks and returns
// the best energy.
func runSA(b *testing.B, tweak func(*core.Config), start func(*topology.Network) *topology.LinkSet) float64 {
	b.Helper()
	net := topology.ISP(15, 6, 3)
	cfg := core.Config{Net: net, Policy: transfer.SJF, MaxIterations: 150, Seed: 11}
	if tweak != nil {
		tweak(&cfg)
	}
	o := core.New(cfg)
	ts := ablationWorkload(b, net)
	st := o.ComputeNetworkState(start(net), ts, 0, experiments.SlotSeconds)
	return st.Stats.BestEnergy
}

func BenchmarkAblationWarmStart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		warm := runSA(b, nil, topology.InitialTopology)
		cold := runSA(b, nil, func(n *topology.Network) *topology.LinkSet {
			return topology.RandomTopology(n, 5)
		})
		b.ReportMetric(warm, "gbps-warm")
		b.ReportMetric(cold, "gbps-cold")
	}
}

func BenchmarkAblationNeighborMove(b *testing.B) {
	for i := 0; i < b.N; i++ {
		single := runSA(b, nil, topology.InitialTopology)
		double := runSA(b, func(c *core.Config) { c.NeighborMoves = 2 }, topology.InitialTopology)
		b.ReportMetric(single, "gbps-4link-move")
		b.ReportMetric(double, "gbps-8link-move")
	}
}

func BenchmarkAblationPolicy(b *testing.B) {
	for _, p := range []transfer.Policy{transfer.SJF, transfer.EDF, transfer.FIFO, transfer.LJF} {
		p := p
		b.Run(p.String(), func(b *testing.B) {
			sc := benchScale()
			for i := 0; i < b.N; i++ {
				net, err := experiments.BuildTopology(experiments.Internet2, sc, 1)
				if err != nil {
					b.Fatal(err)
				}
				o := core.New(core.Config{Net: net, Policy: p, MaxIterations: sc.OwanIterations, Seed: 3})
				ts := ablationWorkload(b, net)
				st := o.ComputeNetworkState(topology.InitialTopology(net), ts, 0, experiments.SlotSeconds)
				b.ReportMetric(st.Stats.BestEnergy, "gbps-energy")
			}
		})
	}
}

func BenchmarkAblationRegenWeight(b *testing.B) {
	// Long-haul circuits on Internet2 exercise regenerator placement.
	for i := 0; i < b.N; i++ {
		run := func(unit bool) float64 {
			net := topology.Internet2(8)
			o := core.New(core.Config{Net: net, Policy: transfer.SJF, MaxIterations: 120, Seed: 9})
			o.SetUnitRegenWeights(unit)
			ts := ablationWorkload(b, net)
			st := o.ComputeNetworkState(topology.InitialTopology(net), ts, 0, experiments.SlotSeconds)
			return st.Stats.BestEnergy
		}
		b.ReportMetric(run(false), "gbps-balanced")
		b.ReportMetric(run(true), "gbps-unit")
	}
}

func BenchmarkAblationPathTiers(b *testing.B) {
	// Tiered (Algorithm 3) vs strictly sequential greedy assignment.
	net := topology.ISP(15, 6, 3)
	ts := ablationWorkload(b, net)
	ordered := append([]*transfer.Transfer(nil), ts...)
	transfer.Order(ordered, transfer.SJF, 0, 0)
	demands := alloc.DemandsFromTransfers(ordered, experiments.SlotSeconds)
	ls := topology.InitialTopology(net)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tiered := alloc.Greedy(ls, net.ThetaGbps, demands)
		seq := alloc.GreedySequential(ls, net.ThetaGbps, demands)
		b.ReportMetric(tiered.Throughput, "gbps-tiered")
		b.ReportMetric(seq.Throughput, "gbps-sequential")
	}
}

func BenchmarkAblationCooling(b *testing.B) {
	for _, alpha := range []float64{0.90, 0.95, 0.99} {
		alpha := alpha
		b.Run(figLabel(alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := runSA(b, func(c *core.Config) { c.Alpha = alpha; c.MaxIterations = 1 << 20 }, topology.InitialTopology)
				b.ReportMetric(e, "gbps-energy")
			}
		})
	}
}

func figLabel(alpha float64) string {
	switch alpha {
	case 0.90:
		return "alpha90"
	case 0.95:
		return "alpha95"
	default:
		return "alpha99"
	}
}
