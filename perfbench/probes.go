package main

import (
	"time"

	"owan/internal/alloc"
	"owan/internal/core"
	"owan/internal/experiments"
	"owan/internal/optical"
	"owan/internal/topology"
	"owan/internal/transfer"
	"owan/internal/update"
)

// prober times calls into each layer's public functions on the topology
// and demands the scheduler just chose. It owns its optical state,
// allocator and update scratch, so the program under test never sees a
// probe; the traced run checks that its trajectory is unchanged.
type prober struct {
	net *topology.Network
	opt *optical.State
	al  *alloc.Allocator
	upd *update.Scratch
	// states ping-pong like the simulator's planner: states[1-flip] is the
	// previous slot's.
	states [2]update.State
	flip   int
	free   map[int]int
	gs     goSampler

	provision, throughput, greedy, diff, clone, plan, demands, oor []float64
	// starts indexes each trajectory's first sample.
	starts        []int
	built, wanted int
	heapPeak      uint64
	// allocs and bytes are what the probes themselves allocated; total is
	// their wall-clock.
	allocs, bytes uint64
	total         time.Duration
}

// newProber builds the probes on opt, an optical state of the very network
// the program runs on, so no route table is rebuilt.
func newProber(net *topology.Network, opt *optical.State) *prober {
	return &prober{net: net, opt: opt, al: alloc.NewAllocator(), upd: update.NewScratch(), free: map[int]int{}, gs: newGoSampler()}
}

// begin starts a trajectory from the initial layout.
func (p *prober) begin(initial *topology.LinkSet) {
	prev := &p.states[1-p.flip]
	prev.Reset()
	prev.SetTopology(initial, p.opt.FiberPathIDs)
	p.starts = append(p.starts, len(p.oor))
}

func timed(f func()) float64 {
	t := time.Now()
	f()
	return us(time.Since(t))
}

func (p *prober) slot(slot int, cur, next *topology.LinkSet, active []*transfer.Transfer, rates map[int][]transfer.PathRate) {
	start := time.Now()
	g0 := p.gs.read()
	p.heapPeak = max(p.heapPeak, g0.heap)

	p.diff = append(p.diff, timed(func() { cur.Diff(next) }))
	p.clone = append(p.clone, timed(func() { next.Clone() }))

	var eff *topology.LinkSet
	p.provision = append(p.provision, timed(func() { eff = p.opt.ProvisionEffective(next) })/1000)
	eff = eff.Clone()
	plan := p.opt.ProvisionTopology(next)
	p.built += plan.TotalBuilt()
	p.wanted += next.TotalCircuits()
	beyond, all := 0, 0
	for _, l := range next.Links() {
		all += l.Count
		if p.opt.FiberDistKm(l.U, l.V) > p.net.ReachKm {
			beyond += l.Count
		}
	}
	p.oor = append(p.oor, ratio(float64(beyond), float64(all)))

	ordered := append([]*transfer.Transfer(nil), active...)
	transfer.Order(ordered, transfer.SJF, slot, core.DefaultStarveSlots)
	dem := alloc.DemandsFromTransfers(ordered, experiments.SlotSeconds)
	p.demands = append(p.demands, float64(len(dem)))
	p.throughput = append(p.throughput, timed(func() { p.al.Throughput(eff, p.net.ThetaGbps, dem) }))
	p.greedy = append(p.greedy, timed(func() { p.al.Greedy(eff, p.net.ThetaGbps, dem) }))

	p.plan = append(p.plan, timed(func() { p.planUpdate(next, active, rates) }))

	g1 := p.gs.read()
	p.allocs += g1.allocs - g0.allocs
	p.bytes += g1.bytes - g0.bytes
	p.total += time.Since(start)
}

// planUpdate plans the consistent update from the previous slot's state to
// this one's on the prober's own scratch, as the simulator's planner does.
func (p *prober) planUpdate(next *topology.LinkSet, active []*transfer.Transfer, rates map[int][]transfer.PathRate) {
	prev, cur := &p.states[1-p.flip], &p.states[p.flip]
	cur.Reset()
	cur.SetTopology(next, p.opt.FiberPathIDs)
	for _, t := range active {
		for _, pr := range rates[t.ID] {
			if pr.Rate > 0 {
				cur.AppendRoute(t.ID, pr.Path, pr.Rate)
			}
		}
	}
	used := map[int]int{}
	for k, c := range prev.Circuits {
		for _, f := range prev.CircuitFibers[k] {
			used[f] += c
		}
	}
	clear(p.free)
	for _, f := range p.net.Fibers {
		p.free[f.ID] = max(0, f.Wavelengths-used[f.ID])
	}
	p.upd.BuildPlan(update.Config{Theta: p.net.ThetaGbps, FiberFree: p.free}, prev, cur)
	p.flip = 1 - p.flip
}

func (p *prober) report(m metricSet) {
	m.set("optical.provision_ms_p50", quantile(p.provision, 0.5), "ms")
	m.set("optical.provision_ms_p90", quantile(p.provision, 0.9), "ms")
	// The share of circuits beyond reach at each trajectory's first and last
	// slot, averaged over trajectories.
	var first, last []float64
	for i, s := range p.starts {
		e := len(p.oor)
		if i+1 < len(p.starts) {
			e = p.starts[i+1]
		}
		if s < e {
			first = append(first, p.oor[s])
			last = append(last, p.oor[e-1])
		}
	}
	m.set("optical.oor_share_first", mean(first), "frac")
	m.set("optical.oor_share_last", mean(last), "frac")
	m.set("optical.built_ratio", ratio(float64(p.built), float64(p.wanted)), "frac")
	m.set("alloc.throughput_us_p50", quantile(p.throughput, 0.5), "us")
	m.set("alloc.greedy_us_p50", quantile(p.greedy, 0.5), "us")
	m.set("alloc.demands_p50", quantile(p.demands, 0.5), "count")
	m.set("topology.diff_us_p50", quantile(p.diff, 0.5), "us")
	m.set("topology.clone_us_p50", quantile(p.clone, 0.5), "us")
	m.set("update.plan_us_p50", quantile(p.plan, 0.5), "us")
}
