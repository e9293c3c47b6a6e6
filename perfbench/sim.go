package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"owan/internal/core"
	"owan/internal/experiments"
	"owan/internal/optical"
	"owan/internal/sim"
	"owan/internal/topology"
	"owan/internal/transfer"
	"owan/internal/workload"
)

// simSpec is a workload run through sim.Run with the Owan scheduler and the
// consistent-update planner on. A run plans several independent
// trajectories, each with its own workload from a seed derived from the run's
// seed: one trajectory's cost and outcome swing with its demand matrix, and
// pooling several keeps a run's figures steady from seed to seed.
type simSpec struct {
	sites, ports int
	iterations   int
	batch        int
	maxSlots     int
	// untilComplete requires every transfer to finish within maxSlots.
	untilComplete bool
	// trajSeconds sizes a run: a run of S seconds plans
	// max(1, round(S/trajSeconds)) trajectories, about one per trajSeconds
	// on a 2-core machine. The work is fixed by S, not by speed.
	trajSeconds float64
	// initial returns the circuit layout every trajectory starts from.
	initial  func(net *topology.Network) *topology.LinkSet
	requests func(net *topology.Network, seed int64) ([]transfer.Request, error)
}

// isp40Paper is the paper-scale ISP backbone with the FullScale workload,
// run until every transfer completes.
var isp40Paper = &simSpec{
	sites: 40, ports: 10, iterations: 700, batch: 2, maxSlots: 2000, untilComplete: true,
	trajSeconds: 5,
	initial:     topology.InitialTopology,
	requests: func(net *topology.Network, seed int64) ([]transfer.Request, error) {
		return mixture(seed, func(sub int64, load float64) ([]transfer.Request, error) {
			return experiments.Workload(experiments.ISP, net, experiments.FullScale(), load, 0, sub)
		})
	},
}

// isp200Drift is the 200-site stress scale with a light workload (2 TB mean,
// 80 TB of per-site demand per slot), planned a few slots at a time from a
// circuit layout that has drifted out of optical reach.
var isp200Drift = &simSpec{
	sites: 200, ports: 8, iterations: 30, batch: 8, maxSlots: isp200Slots,
	trajSeconds: 3,
	initial:     driftedLayout,
	requests: func(net *topology.Network, seed int64) ([]transfer.Request, error) {
		return workload.Generate(workload.Config{
			Sites: net.NumSites(), MeanSizeGbits: 2 * workload.TB,
			TotalDemandGbits: 80 * workload.TB * isp200Slots, Load: 1, DurationSlots: isp200Slots, Seed: seed,
		})
	},
}

// isp200Slots is the length of one isp200-drift trajectory.
const isp200Slots = 5

// Annealing moves the layout away from the reach-aware initial one slot by
// slot, and once a share of circuits lies beyond reach every energy
// evaluation pays for regenerator routing. driftedLayout stands in for the
// layout after about 60 annealed slots: driftSwaps port-preserving random
// swaps from the initial layout, drawn from a fixed seed so every run starts
// from the same layout (about a third of its circuits beyond reach).
const (
	driftSwaps = 200
	driftSeed  = 1
)

func driftedLayout(net *topology.Network) *topology.LinkSet {
	cfg := core.DefaultConfig(net)
	cfg.Seed = driftSeed
	o := core.New(cfg)
	ls := topology.InitialTopology(net)
	for i := 0; i < driftSwaps; i++ {
		if next := o.ComputeNeighbor(ls); next != nil {
			ls = next.Clone()
		}
	}
	return ls
}

func (s *simSpec) trajectories(o options) int {
	return max(1, int(math.Round(o.seconds/s.trajSeconds)))
}

func (s *simSpec) coreConfig(net *topology.Network, seed int64, workers int) core.Config {
	cfg := core.DefaultConfig(net)
	cfg.Seed = seed
	cfg.Policy = transfer.SJF
	cfg.MaxIterations = s.iterations
	cfg.BatchSize = s.batch
	cfg.Workers = workers
	return cfg
}

// simState is a prepared sim workload: its network, the starting layout,
// one request set and seed per trajectory, and the controller core set up
// for the first trajectory with workers workers.
type simState struct {
	net     *topology.Network
	initial *topology.LinkSet
	reqs    [][]transfer.Request
	seeds   []int64
	owan    *core.Owan
	workers int
	// probeOpt is the traced run's own optical state, built before core.New
	// so newState times the cold route-table build and coreNew the rest.
	probeOpt          *optical.State
	newState, coreNew time.Duration
	setup             time.Duration
}

func (s *simSpec) prepare(o options, workers int) (*simState, error) {
	st := &simState{net: topology.ISP(s.sites, s.ports, 1)}
	for i := 0; i < s.trajectories(o); i++ {
		seed := subSeed(o.seed, i)
		reqs, err := s.requests(st.net, seed)
		if err != nil {
			return nil, err
		}
		if len(reqs) == 0 {
			return nil, fmt.Errorf("seed %d generated no transfers", seed)
		}
		st.reqs = append(st.reqs, reqs)
		st.seeds = append(st.seeds, seed)
	}
	if o.trace {
		t := time.Now()
		st.probeOpt = optical.NewState(st.net)
		st.newState = time.Since(t)
	}
	t := time.Now()
	st.owan, st.workers = core.New(s.coreConfig(st.net, st.seeds[0], workers)), workers
	st.coreNew = time.Since(t)
	st.initial = s.initial(st.net)
	st.setup = time.Since(processStart)
	return st, nil
}

func (s *simSpec) setupOnly(o options) (time.Duration, error) {
	st, err := s.prepare(o, runtime.GOMAXPROCS(0))
	if err != nil {
		return 0, err
	}
	st.owan.Close()
	return st.setup, nil
}

// slotRec is what the recorder saw of one Schedule call.
type slotRec struct {
	slot   int
	enter  time.Time
	sched  time.Duration
	probe  time.Duration
	stats  core.SearchStats
	active int
}

// recorder is a transparent sim.Scheduler wrapper: it timestamps every
// Schedule entry and keeps the search statistics, and in the traced pass runs
// the probes after the wrapped call returns.
type recorder struct {
	inner *sim.OwanScheduler
	recs  []slotRec
	probe *prober
}

func (r *recorder) Name() string { return r.inner.Name() }

func (r *recorder) Schedule(slot int, topo *topology.LinkSet, active []*transfer.Transfer) (*topology.LinkSet, map[int][]transfer.PathRate) {
	enter := time.Now()
	next, alloc := r.inner.Schedule(slot, topo, active)
	rec := slotRec{slot: slot, enter: enter, sched: time.Since(enter), stats: r.inner.LastStats, active: len(active)}
	if r.probe != nil {
		t := time.Now()
		if next == nil {
			r.probe.slot(slot, topo, topo, active, alloc)
		} else {
			r.probe.slot(slot, topo, next, active, alloc)
		}
		rec.probe = time.Since(t)
	}
	r.recs = append(r.recs, rec)
	return next, alloc
}

// simPass is one complete sim.Run.
type simPass struct {
	res  *sim.Result
	recs []slotRec
	end  time.Time
}

// pass runs trajectory i on owan and closes it.
func (s *simSpec) pass(st *simState, i int, owan *core.Owan, p *prober) (*simPass, error) {
	if p != nil {
		p.begin(st.initial)
	}
	rec := &recorder{inner: &sim.OwanScheduler{O: owan, SlotSeconds: experiments.SlotSeconds}, probe: p}
	res, err := sim.Run(sim.Config{
		Net: st.net, Initial: st.initial,
		Scheduler: rec, Requests: st.reqs[i],
		SlotSeconds: experiments.SlotSeconds, MaxSlots: s.maxSlots,
		ReconfigSeconds: 4, PlanUpdates: true,
	})
	end := time.Now()
	owan.Close()
	if err != nil {
		return nil, err
	}
	return &simPass{res: res, recs: rec.recs, end: end}, nil
}

// passes runs every trajectory on a core with workers workers, using the
// prepared core for the first trajectory when it fits.
func (s *simSpec) passes(st *simState, workers int, p *prober) ([]*simPass, error) {
	var out []*simPass
	for i, seed := range st.seeds {
		owan := st.owan
		if i > 0 || owan == nil || workers != st.workers {
			owan = core.New(s.coreConfig(st.net, seed, workers))
		} else {
			st.owan = nil
		}
		ps, err := s.pass(st, i, owan, p)
		if err != nil {
			return nil, err
		}
		out = append(out, ps)
	}
	return out, nil
}

// warmGaps returns the wall-clock between successive Schedule entries (the
// last slot ends when sim.Run returns), skipping the first slot, whose
// search starts the evaluator pool, and leaving out probe time.
func (p *simPass) warmGaps() []float64 {
	var gaps []float64
	for i := 1; i < len(p.recs); i++ {
		next := p.end
		if i+1 < len(p.recs) {
			next = p.recs[i+1].enter
		}
		gaps = append(gaps, ms(next.Sub(p.recs[i].enter)-p.recs[i].probe))
	}
	return gaps
}

// submitWaits returns, for every transfer that arrived within the run, the
// wall-clock of its arrival slot's Schedule call. The simulator admits a
// transfer at the start of its arrival slot, and the call's return is the
// controller's first answer to it (its rates, possibly zero): the sim's form
// of a submit acknowledgement. Like warmGaps it leaves out the first slot,
// and it also returns how many transfers arrived in the slots it covers.
func (p *simPass) submitWaits() (waits []float64, arrived int) {
	bySlot := map[int]time.Duration{}
	for _, r := range p.recs[min(1, len(p.recs)):] {
		bySlot[r.slot] = r.sched
	}
	for _, t := range p.res.Transfers {
		if t.Arrival == 0 || t.Arrival >= p.res.Slots {
			continue
		}
		arrived++
		if d, ok := bySlot[t.Arrival]; ok {
			waits = append(waits, ms(d))
		}
	}
	return waits, arrived
}

// simSummary is the deterministic outcome of one or more passes: equal seeds
// must give equal summaries, whatever the worker count and whether probes
// ran.
type simSummary struct {
	delivered, seconds, ct float64
	arrived, completed     int
	churn                  []int
}

func (a *simSummary) add(res *sim.Result) {
	for _, t := range res.Transfers {
		a.delivered += t.SizeGbits - t.Remaining
		if t.Arrival < res.Slots {
			a.arrived++
		}
		if t.Done {
			a.completed++
			a.ct += t.FinishTime - float64(t.Arrival)*res.SlotSeconds
		}
	}
	a.seconds += float64(res.Slots) * res.SlotSeconds
	a.churn = append(a.churn, res.Churn...)
}

func (a *simSummary) equal(b *simSummary) bool {
	return a.delivered == b.delivered && a.seconds == b.seconds && a.ct == b.ct &&
		a.arrived == b.arrived && a.completed == b.completed && slices.Equal(a.churn, b.churn)
}

func (a *simSummary) goodput() float64       { return ratio(a.delivered, a.seconds) }
func (a *simSummary) meanCT() float64        { return ratio(a.ct, float64(a.completed)) }
func (a *simSummary) completedFrac() float64 { return ratio(float64(a.completed), float64(a.arrived)) }

// checkSimResult runs the output checks on one sim result.
func checkSimResult(out *outcome, label string, res *sim.Result, untilComplete bool) {
	out.check(len(res.Updates) == res.Slots, "%s: %d update plans for %d slots", label, len(res.Updates), res.Slots)
	out.check(len(res.SlotThroughput) == res.Slots && len(res.Churn) == res.Slots,
		"%s: %d throughputs and %d churns for %d slots", label, len(res.SlotThroughput), len(res.Churn), res.Slots)
	sent := 0.0
	for _, g := range res.SlotThroughput {
		sent += g * res.SlotSeconds
	}
	delivered, size := 0.0, 0.0
	bad := 0
	for _, t := range res.Transfers {
		d := t.SizeGbits - t.Remaining
		delivered += d
		size += t.SizeGbits
		if t.Remaining < 0 || d < 0 || t.DeliveredByDeadline > t.SizeGbits ||
			(t.Done && (t.Remaining != 0 || t.FinishTime < float64(t.Arrival)*res.SlotSeconds)) {
			bad++
		}
	}
	out.check(bad == 0, "%s: %d transfers delivered more than their size or finished before arriving", label, bad)
	// The simulator zeroes sub-1e-5 Gbit residues without sending them.
	tol := 1e-5*float64(len(res.Transfers)) + 1e-9*size
	out.check(math.Abs(sent-delivered) <= tol,
		"%s: slot throughput sums to %.6f Gbit but transfers received %.6f Gbit", label, sent, delivered)
	if untilComplete {
		out.check(!math.IsInf(res.MakespanSeconds, 1), "%s: not every transfer completed in %d slots", label, res.Slots)
	}
}

func (s *simSpec) run(o options) (*outcome, error) {
	workers := runtime.GOMAXPROCS(0)
	st, err := s.prepare(o, workers)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.setup = st.setup
	if o.trace {
		return out, s.runTraced(st, workers, out)
	}
	cpu0 := cpuTime()
	passes, err := s.passes(st, workers, nil)
	if err != nil {
		return nil, err
	}
	cpu := cpuTime() - cpu0

	// The submit tail is a trajectory's few slowest arrival slots, so one
	// stall of the machine decides a pooled p99; the median of the
	// trajectories' p99s does not move with it.
	var gaps, waits, tails []float64
	var sum simSummary
	arrived := 0
	for i, p := range passes {
		checkSimResult(out, fmt.Sprintf("trajectory %d", i), p.res, s.untilComplete)
		gaps = append(gaps, p.warmGaps()...)
		w, a := p.submitWaits()
		waits = append(waits, w...)
		if len(w) > 0 {
			tails = append(tails, quantile(w, 0.99))
		}
		arrived += a
		sum.add(p.res)
		out.attempted += len(p.recs)
	}
	out.check(len(gaps) > 0, "no warm slots were timed")
	m := out.metrics
	m.set("slot_p50_ms", quantile(gaps, 0.5), "ms")
	m.set("slot_p90_ms", quantile(gaps, 0.9), "ms")
	m.set("cpu_ms_per_slot", ms(cpu)/float64(out.attempted), "ms")
	m.set("goodput_gbps", sum.goodput(), "Gbps")
	m.set("mean_ct_s", sum.meanCT(), "s")
	m.set("completed_frac", sum.completedFrac(), "frac")
	m.set("submit_p50_ms", quantile(waits, 0.5), "ms")
	m.set("submit_p99_ms", quantile(tails, 0.5), "ms")
	m.set("submit_ok_frac", ratio(float64(len(waits)), float64(arrived)), "frac")
	return out, nil
}

// refWorkers is the worker count of the traced run's reference passes: a
// different one from the timed passes, so matching trajectories also show
// that the result does not depend on Workers.
func refWorkers(workers int) int {
	if workers > 1 {
		return 1
	}
	return 2
}

func (s *simSpec) runTraced(st *simState, workers int, out *outcome) error {
	refs, err := s.passes(st, refWorkers(workers), nil)
	if err != nil {
		return err
	}
	pr := newProber(st.net, st.probeOpt)
	g0 := pr.gs.read()
	t0 := time.Now()
	passes, err := s.passes(st, workers, pr)
	if err != nil {
		return err
	}
	wall := time.Since(t0)
	g1 := pr.gs.read()

	var search searchAgg
	var plans updateAgg
	var other, active []float64
	for i, p := range passes {
		checkSimResult(out, fmt.Sprintf("traced trajectory %d", i), p.res, s.untilComplete)
		checkSimResult(out, fmt.Sprintf("reference trajectory %d", i), refs[i].res, s.untilComplete)
		var a, b simSummary
		a.add(p.res)
		b.add(refs[i].res)
		out.check(a.equal(&b), "trajectory %d: traced pass (%d workers) and reference pass (%d workers) differ",
			i, workers, refWorkers(workers))
		out.attempted += len(p.recs)
		for j, r := range p.recs {
			search.add(r.stats)
			active = append(active, float64(r.active))
			if j > 0 {
				next := p.end
				if j+1 < len(p.recs) {
					next = p.recs[j+1].enter
				}
				other = append(other, ms(next.Sub(r.enter)-r.probe-r.sched))
			}
		}
		for _, u := range p.res.Updates {
			if u.Planned {
				plans.add(u.Rounds, u.Ops, u.Err)
			}
		}
	}
	m := out.metrics
	pr.report(m)
	search.report(m)
	plans.report(m)
	reportGo(m, g0, g1, float64(out.attempted), pr.allocs, pr.bytes, pr.heapPeak)
	m.set("optical.newstate_s", st.newState.Seconds(), "s")
	m.set("core.new_s", st.coreNew.Seconds(), "s")
	m.set("sim.other_ms_p50", quantile(other, 0.5), "ms")
	m.set("sim.active_p50", quantile(active, 0.5), "count")
	m.set("trace.overhead_frac", ratio(float64(pr.total), float64(wall)), "frac")
	return nil
}
