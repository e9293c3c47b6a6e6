package core

import (
	"math"
	"math/rand"
	"time"

	"owan/internal/topology"
)

// This file implements replica-exchange (parallel tempering) annealing on
// top of the batch evaluator: R chains run side by side at a geometric
// temperature ladder — rung 0 is the coldest, at the normal schedule
// temperature, rung r at temperLadderStep^r times that — and every
// ExchangeInterval rounds neighbor rungs propose to swap their current
// states under the Metropolis criterion on (ΔE, Δβ). Hot rungs cross energy
// barriers the cold rung cannot; exchanges funnel their discoveries down.
//
// Determinism discipline, extending the (Seed, BatchSize) contract of
// parallel.go to (Seed, BatchSize, Replicas): every RNG draw happens on the
// coordinating goroutine. Each replica owns a private RNG derived from
// (Config.Seed, the controller's slot sequence number, its rung index) and
// draws from it for its own candidate generation and acceptance, in rung
// order; exchange decisions draw from a separate RNG derived the same way.
// Workers only ever compute energies — pure functions of (topology,
// demands) — so Workers/GOMAXPROCS change wall-clock time, never the
// result. Candidates are move lists against their replica's current state,
// evaluated like the single chain's; the energy memo and the provision cache
// are keyed by topology alone, which is replica-agnostic.

// temperReplica is one tempering chain: its RNG, its current state, its
// rung's cooling schedule, and how many iterations it has run.
type temperReplica struct {
	rng   *rand.Rand
	cur   *chain
	eCur  float64
	T, T0 float64
	iters int
}

// mixSeed derives an independent, reproducible RNG seed from the controller
// seed, the slot sequence number, and a stream index (rung index, or -1 for
// the exchange stream) via a splitmix64-style finalizer. Plain addition
// would make stream k of seed s collide with stream k+1 of seed s-1.
func mixSeed(seed, slotSeq int64, stream int) int64 {
	z := uint64(seed)
	z ^= (uint64(slotSeq) + 1) * 0x9e3779b97f4a7c15
	z ^= (uint64(int64(stream)) + 0x632be59bd9b4e019) * 0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// temperedAnneal runs Config.Replicas chains from (sInit, eInit), rung 0
// starting at temperature T (warm-started or cold; see warmStartTemp) with
// the stop temperature epsilon anchored to the cold schedule T0. It returns
// the best state seen by any rung, its energy, and rung 0's final
// temperature. stats.Iterations and stats.Accepted accumulate over all
// rungs; exchange and early-exit activity lands in the tempering counters.
func (o *Owan) temperedAnneal(ev *evaluator, current, sInit *topology.LinkSet, eInit, T, T0, epsilon float64, deadline time.Time, stats *SearchStats) (*topology.LinkSet, float64, float64) {
	R := o.cfg.Replicas
	reps := make([]*temperReplica, R)
	for r := 0; r < R; r++ {
		scale := math.Pow(temperLadderStep, float64(r))
		reps[r] = &temperReplica{
			rng:  rand.New(rand.NewSource(mixSeed(o.cfg.Seed, o.slotSeq, r))),
			cur:  &chain{s: sInit},
			eCur: eInit,
			T:    T * scale,
			T0:   T0 * scale,
		}
	}
	exRng := rand.New(rand.NewSource(mixSeed(o.cfg.Seed, o.slotSeq, -1)))
	sBest, eBest := sInit, eInit

	counts := make([]int, R)
	var energies []float64
	rounds, streak := 0, 0
	windowBest := eBest
	stop := false
	for !stop {
		cold := reps[0]
		if cold.T <= epsilon {
			if deadline.IsZero() {
				break
			}
			// Wall-clock budget: reheat every rung to its ladder T0 and keep
			// searching, mirroring the single-chain schedule of Figure 10d.
			for _, rep := range reps {
				rep.T = rep.T0
			}
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}
		if cold.iters >= o.cfg.MaxIterations {
			break
		}

		// Generate every rung's batch in rung order, each from its own RNG,
		// into one flat candidate list; a single evaluator call spreads the
		// R×BatchSize energies over the worker pool. The churn trust region
		// is measured against the slot's starting topology exactly as in the
		// single-chain loop.
		cands := ev.cands[:0]
		exhausted := false
		for r, rep := range reps {
			k := min(o.cfg.BatchSize, o.cfg.MaxIterations-rep.iters)
			n := len(cands)
			var ok bool
			cands, ok = o.propose(rep.rng, current, rep.cur, cands, k)
			if !ok {
				exhausted = true
			}
			counts[r] = len(cands) - n
		}
		ev.cands = cands
		if len(cands) == 0 {
			break
		}
		energies = ev.energies(cands, energies)

		// Reduce each rung's slice of the batch in rung order with its own
		// RNG — the same in-order Metropolis walk as the single chain, with
		// each rung cooling by Alpha per iteration on its own ladder level.
		off := 0
		for r, rep := range reps {
			for i := off; i < off+counts[r]; i++ {
				rep.iters++
				stats.Iterations++
				cd := &cands[i]
				if !cd.eval {
					rep.T *= o.cfg.Alpha
					continue
				}
				eN := energies[i]
				if eN > eBest {
					sBest, eBest = cd.state(), eN
				}
				if accept(rep.eCur, eN, rep.T, rep.rng) {
					rep.cur.set(cd.state())
					rep.eCur = eN
					stats.Accepted++
				}
				rep.T *= o.cfg.Alpha
			}
			off += counts[r]
		}
		if exhausted {
			stop = true
		}

		rounds++
		if rounds%o.cfg.ExchangeInterval == 0 {
			// Exchange sweep over neighbor-rung pairs, alternating parity so
			// a state can ladder all the way down over successive sweeps.
			// One exchange-RNG draw per attempt, accepted or not, keeps the
			// stream's consumption independent of the energies.
			par := (rounds / o.cfg.ExchangeInterval) % 2
			for i := par; i+1 < R; i += 2 {
				a, b := reps[i], reps[i+1] // a is the colder rung
				stats.ExchangeAttempts++
				// Joint-weight ratio for swapping states between inverse
				// temperatures βa > βb when energy is maximized (cost −E):
				// accept with min(1, exp((βa−βb)(Eb−Ea))) — a hotter rung
				// holding the higher energy always hands it down.
				dBeta := 1/a.T - 1/b.T
				p := math.Exp(dBeta * (b.eCur - a.eCur))
				if exRng.Float64() < p {
					a.cur, b.cur = b.cur, a.cur
					a.eCur, b.eCur = b.eCur, a.eCur
					stats.Exchanges++
				}
			}
			if o.cfg.ConvergeWindows > 0 {
				if eBest-windowBest <= o.cfg.EpsilonFrac*math.Max(math.Abs(eBest), 1e-9) {
					streak++
					if streak >= o.cfg.ConvergeWindows {
						stats.EarlyExit = true
						stop = true
					}
				} else {
					streak = 0
				}
				windowBest = eBest
			}
		}
	}
	return sBest, eBest, reps[0].T
}
