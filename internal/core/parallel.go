package core

import (
	"owan/internal/alloc"
	"owan/internal/optical"
	"owan/internal/topology"
)

// This file implements the batch evaluation behind the annealing search: a
// worker pool where every worker owns a cloned optical.State and allocator
// (so provisioning never shares mutable state across goroutines), fronted by
// a per-search energy memo.
//
// Every energy is the cold one. For each candidate the coordinator merges
// its moves into the base's sorted enumeration and encodes the canonical key
// once; the key is looked up in the memo (energies depend on the slot's
// demands, so the memo is cleared at begin), then in the controller-lifetime
// provision cache, and only then is the candidate provisioned and allocated.
//
// Determinism contract: the search trajectory is a pure function of
// (Config.Seed, Config.BatchSize). Neighbor generation and acceptance both
// happen on the coordinating goroutine; workers only compute energies, which
// are pure functions of (topology, demands) and therefore identical no matter
// which goroutine computes them, in which order results arrive, or whether a
// cache answered. Workers, GOMAXPROCS and ProvisionCacheSize never change the
// result (pinned by testdata/search_golden.json).

type evalResult struct {
	idx    int
	energy float64
}

// workerCtx is the per-goroutine evaluation state: an exclusively owned
// (optical state, allocator) pair and the effective-link scratch.
type workerCtx struct {
	id  int // worker slot for the per-worker counters
	opt *optical.State
	al  *alloc.Allocator
	eff []topology.Link
}

// evaluator computes candidate energies, either inline on the controller's
// own optical state (workers <= 1) or on a pool of workers with cloned
// states. One evaluator lives as long as its Owan: the worker goroutines and
// their scratch persist across ComputeNetworkState calls; begin() refreshes
// the per-search state (demands, counters, memo).
type evaluator struct {
	o       *Owan
	demands []alloc.Demand
	workers int
	// memo maps canonical candidate keys to energies for the current search.
	memo map[string]float64

	jobs    chan int // candidate indices into merged/keys
	results chan evalResult
	done    chan struct{}
	running bool
	wctxs   []*workerCtx // persistent pool contexts (workers > 1)
	ctx0    workerCtx    // inline context on the controller's own state

	hits               int
	evals              []int // energy computations per worker slot
	provHits, provMiss []int // provision-cache activity per worker slot

	// Per-candidate merged enumerations and keys of the current batch (of
	// n-site topologies), written by the coordinator before dispatch and only
	// read by workers.
	n       int
	merged  [][]topology.Link
	keys    [][]byte
	pending []int
	acc     []pairDelta
	patch   []topology.Link
	// cands is the search loops' candidate buffer, kept for its move lists.
	cands []candidate
}

// newEvaluator builds the evaluator without starting any goroutine; begin
// starts (or restarts) the pool lazily.
func newEvaluator(o *Owan) *evaluator {
	ev := &evaluator{
		o:       o,
		workers: max(o.cfg.Workers, 1),
		memo:    make(map[string]float64),
	}
	ev.evals = make([]int, ev.workers)
	ev.provHits = make([]int, ev.workers)
	ev.provMiss = make([]int, ev.workers)
	ev.ctx0 = workerCtx{opt: o.opt, al: o.al}
	if ev.workers > 1 {
		for w := 0; w < ev.workers; w++ {
			ev.wctxs = append(ev.wctxs, &workerCtx{id: w, opt: o.opt.Clone(), al: alloc.NewAllocator()})
		}
	}
	return ev
}

// begin readies the evaluator for one search: fresh demand set, counters and
// memo, and a running pool.
func (ev *evaluator) begin(demands []alloc.Demand) {
	ev.demands = demands
	ev.hits = 0
	for i := range ev.evals {
		ev.evals[i], ev.provHits[i], ev.provMiss[i] = 0, 0, 0
	}
	clear(ev.memo)
	ev.ensureStarted()
}

// ensureStarted (re)spawns the worker goroutines. The pool contexts persist
// across restarts, so a closed-then-reused controller keeps its warm scratch.
func (ev *evaluator) ensureStarted() {
	if ev.workers <= 1 || ev.running {
		return
	}
	// energies pushes a whole batch before draining any result, so the
	// channels must hold the largest batch the search can submit: the
	// tempered loop flattens all replicas' candidates into one call.
	depth := ev.o.cfg.BatchSize * ev.o.cfg.Replicas
	ev.jobs = make(chan int, depth)
	ev.results = make(chan evalResult, depth)
	ev.done = make(chan struct{})
	for _, ctx := range ev.wctxs {
		go ev.worker(ctx)
	}
	ev.running = true
}

// worker evaluates candidates on its private optical state and allocator
// until the pool closes.
func (ev *evaluator) worker(ctx *workerCtx) {
	for {
		select {
		case i := <-ev.jobs:
			ev.evals[ctx.id]++ // exclusive slot; read by coordinator after the batch barrier
			ev.results <- evalResult{idx: i, energy: ev.energy(ctx, ev.n, ev.merged[i], ev.keys[i])}
		case <-ev.done:
			return
		}
	}
}

// energy is the cold energy of the n-site topology with sorted enumeration
// links and canonical key: the provision cache is consulted first — on a hit
// the optical provisioning, the expensive half, is skipped and the allocator
// runs on the cached effective links — then the topology is provisioned and
// allocated. Safe concurrently across contexts; the provision cache locks.
func (ev *evaluator) energy(ctx *workerCtx, n int, links []topology.Link, key []byte) float64 {
	theta := ev.o.cfg.Net.ThetaGbps
	pc := ev.o.provCache
	if pc == nil {
		ctx.eff = ctx.opt.ProvisionEffectiveLinks(links, ctx.eff[:0])
		return ctx.al.ThroughputLinks(n, ctx.eff, theta, ev.demands)
	}
	h := topology.KeyHash(key)
	if eff, m, ok := pc.get(h, key, ctx.eff[:0]); ok {
		ctx.eff = eff
		ev.provHits[ctx.id]++
		return ctx.al.ThroughputLinks(m, eff, theta, ev.demands)
	}
	ev.provMiss[ctx.id]++
	ctx.eff = ctx.opt.ProvisionEffectiveLinks(links, ctx.eff[:0])
	pc.put(h, key, n, ctx.eff, ctx.opt.DirectOnly(), ctx.opt.SegmentOnly())
	return ctx.al.ThroughputLinks(n, ctx.eff, theta, ev.demands)
}

// energyOf evaluates a materialized state inline (the initial energy of a
// search) and records it in the memo.
func (ev *evaluator) energyOf(s *topology.LinkSet) float64 {
	ev.grow(1)
	ev.merged[0] = s.AppendLinks(ev.merged[0][:0])
	ev.keys[0] = topology.AppendKeyFromLinks(ev.keys[0][:0], s.N, ev.merged[0])
	ev.n = s.N
	e := ev.energy(&ev.ctx0, s.N, ev.merged[0], ev.keys[0])
	ev.memo[string(ev.keys[0])] = e
	return e
}

func (ev *evaluator) grow(n int) {
	for len(ev.merged) < n {
		ev.merged = append(ev.merged, nil)
		ev.keys = append(ev.keys, nil)
	}
}

// energies returns the energy of every candidate with eval set; other slots
// are left at zero. Keys and memo lookups happen here on the coordinating
// goroutine; the misses are evaluated inline or on the pool and memoized.
func (ev *evaluator) energies(cands []candidate, out []float64) []float64 {
	if cap(out) < len(cands) {
		out = make([]float64, len(cands))
	}
	out = out[:len(cands)]
	clear(out)
	ev.grow(len(cands))
	ev.pending = ev.pending[:0]
	for i := range cands {
		cd := &cands[i]
		if !cd.eval {
			continue
		}
		ev.merged[i], ev.acc, ev.patch = mergeMoves(ev.merged[i], cd.links, cd.moves, ev.acc, ev.patch)
		ev.keys[i] = topology.AppendKeyFromLinks(ev.keys[i][:0], ev.n, ev.merged[i])
		if e, ok := ev.memo[string(ev.keys[i])]; ok {
			ev.hits++
			out[i] = e
			if ev.o.onCacheHit != nil {
				ev.o.onCacheHit(cd.state(), e)
			}
			continue
		}
		ev.pending = append(ev.pending, i)
	}
	if ev.workers <= 1 {
		for _, i := range ev.pending {
			ev.evals[0]++
			out[i] = ev.energy(&ev.ctx0, ev.n, ev.merged[i], ev.keys[i])
		}
	} else {
		for _, i := range ev.pending {
			ev.jobs <- i
		}
		for range ev.pending {
			r := <-ev.results
			out[r.idx] = r.energy
		}
	}
	for _, i := range ev.pending {
		ev.memo[string(ev.keys[i])] = out[i]
	}
	return out
}

// finish copies the search's counters into stats. The pool keeps running —
// the evaluator is controller-lifetime state, stopped by Owan.Close.
func (ev *evaluator) finish(stats *SearchStats) {
	stats.CacheHits = ev.hits
	stats.WorkerEvals = append([]int(nil), ev.evals...)
	for i := range ev.provHits {
		stats.ProvisionHits += ev.provHits[i]
		stats.ProvisionMisses += ev.provMiss[i]
	}
}

// close stops the worker pool; it is idempotent, and ensureStarted can spin
// the same contexts back up afterwards.
func (ev *evaluator) close() {
	if !ev.running {
		return
	}
	ev.running = false
	close(ev.done)
}
