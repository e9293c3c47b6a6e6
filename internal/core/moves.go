package core

import (
	"math/rand"

	"owan/internal/topology"
)

// This file implements the annealing candidates. A candidate is a move list
// against the state of the chain that drew it — up to NeighborMoves
// elementary swaps — and becomes a LinkSet only when the search adopts it as
// its current or best state. Cloning every proposal instead (plus its churn
// Diff) used to dominate the coordinator at ISP scale.
//
// Determinism: neighborMoves consumes the RNG draw-for-draw like the
// materializing Algorithm 2 generator (same sample walk over the same sorted
// enumeration, same orientation draws, same validation order, same 32-try
// budget), pinned by TestNeighborMovesMatchesComputeNeighbor.

// swapMove is one elementary 2-circuit swap: remove one circuit from (U, V)
// and one from (P, Q), add one to (U, P) and one to (V, Q).
type swapMove struct {
	U, V, P, Q int
}

// pairDelta is the net circuit-count change of one canonical pair.
type pairDelta struct {
	u, v, d int
}

// accumMoves folds a move list into net per-pair deltas, (u, v)-sorted with
// zero entries dropped (a pair removed by one move and re-added by another
// nets out). The returned slice aliases buf.
func accumMoves(moves []swapMove, buf []pairDelta) []pairDelta {
	add := func(x, y, d int) {
		if x > y {
			x, y = y, x
		}
		lo := 0
		for lo < len(buf) && (buf[lo].u < x || (buf[lo].u == x && buf[lo].v < y)) {
			lo++
		}
		if lo < len(buf) && buf[lo].u == x && buf[lo].v == y {
			buf[lo].d += d
			return
		}
		buf = append(buf, pairDelta{})
		copy(buf[lo+1:], buf[lo:])
		buf[lo] = pairDelta{u: x, v: y, d: d}
	}
	for _, mv := range moves {
		add(mv.U, mv.V, -1)
		add(mv.P, mv.Q, -1)
		add(mv.U, mv.P, 1)
		add(mv.V, mv.Q, 1)
	}
	w := 0
	for i := range buf {
		if buf[i].d != 0 {
			buf[w] = buf[i]
			w++
		}
	}
	return buf[:w]
}

// linksGet returns the count of canonical pair (u, v) in a (U, V)-sorted
// enumeration, by binary search.
func linksGet(links []topology.Link, u, v int) int {
	if u > v {
		u, v = v, u
	}
	lo, hi := 0, len(links)
	for lo < hi {
		mid := (lo + hi) / 2
		if links[mid].U < u || (links[mid].U == u && links[mid].V < v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(links) && links[lo].U == u && links[lo].V == v {
		return links[lo].Count
	}
	return 0
}

// mergeMoves writes the sorted enumeration of base plus moves into dst:
// exactly what AppendLinks of the materialized candidate would produce.
// acc and patch are scratch; all three buffers are returned for reuse.
func mergeMoves(dst, base []topology.Link, moves []swapMove, acc []pairDelta, patch []topology.Link) ([]topology.Link, []pairDelta, []topology.Link) {
	acc = accumMoves(moves, acc[:0])
	patch = patch[:0]
	for _, pd := range acc {
		patch = append(patch, topology.Link{U: pd.u, V: pd.v, Count: linksGet(base, pd.u, pd.v) + pd.d})
	}
	return topology.MergePatch(dst[:0], base, patch), acc, patch
}

// drawSwap draws one elementary swap from a sorted enumeration holding
// total circuits: Intn(total) plus an orientation Intn(2) per sample, two
// samples per try, up to 32 tries.
func drawSwap(rng *rand.Rand, links []topology.Link, total int) (swapMove, bool) {
	if len(links) == 0 || total < 2 {
		return swapMove{}, false
	}
	// Sample circuit instances weighted by multiplicity.
	sample := func() (int, int) {
		k := rng.Intn(total)
		for _, l := range links {
			if k < l.Count {
				// Random orientation.
				if rng.Intn(2) == 0 {
					return l.U, l.V
				}
				return l.V, l.U
			}
			k -= l.Count
		}
		panic("unreachable")
	}
	for try := 0; try < 32; try++ {
		u, v := sample()
		p, q := sample()
		// Moving capacity from (u,v)+(p,q) to (u,p)+(v,q).
		if u == p || v == q {
			continue
		}
		if u == v || p == q {
			continue
		}
		if linksGet(links, u, v) == 0 || linksGet(links, p, q) == 0 {
			continue
		}
		// If (u,v) == (p,q) as a link, it must hold at least 2 circuits.
		if canonEq(u, v, p, q) && linksGet(links, u, v) < 2 {
			continue
		}
		return swapMove{U: u, V: v, P: p, Q: q}, true
	}
	return swapMove{}, false
}

// neighborMoves appends the moves of one neighbor of a base topology to buf,
// drawing from rng. baseLinks must be the base's sorted enumeration and total
// its circuit count (invariant under swaps). For NeighborMoves > 1 the later
// swaps sample from the merged enumeration of base plus the moves so far.
// ok is false only when the first swap finds no valid move.
func (o *Owan) neighborMoves(rng *rand.Rand, baseLinks []topology.Link, total int, buf []swapMove) ([]swapMove, bool) {
	for m := 0; m < o.cfg.NeighborMoves; m++ {
		links := baseLinks
		if len(buf) > 0 {
			o.nbMerged, o.nbAcc, o.nbPatch = mergeMoves(o.nbMerged, baseLinks, buf, o.nbAcc, o.nbPatch)
			links = o.nbMerged
		}
		mv, ok := drawSwap(rng, links, total)
		if !ok {
			return buf, m > 0
		}
		buf = append(buf, mv)
	}
	return buf, true
}

// materializeMoves clones the base and applies the moves.
func materializeMoves(base *topology.LinkSet, moves []swapMove) *topology.LinkSet {
	s := base.Clone()
	for _, mv := range moves {
		s.Add(mv.U, mv.V, -1)
		s.Add(mv.P, mv.Q, -1)
		s.Add(mv.U, mv.P, 1)
		s.Add(mv.V, mv.Q, 1)
	}
	return s
}

// chain is one annealing chain's current state plus what its candidates are
// drawn and bounded against: the state's sorted enumeration, circuit count
// and churn from the slot's starting topology, refreshed lazily after the
// state changes.
type chain struct {
	s     *topology.LinkSet
	links []topology.Link
	total int
	churn int
	fresh bool
}

func (c *chain) set(s *topology.LinkSet) {
	c.s = s
	c.fresh = false
}

// candidate is one proposal: moves against base (links is base's sorted
// enumeration). eval is false for candidates outside the churn bound, which
// cost an iteration but no energy evaluation.
type candidate struct {
	base  *topology.LinkSet
	links []topology.Link
	moves []swapMove
	eval  bool
	mat   *topology.LinkSet
}

// state materializes the candidate once; the best and current state share
// the result.
func (cd *candidate) state() *topology.LinkSet {
	if cd.mat == nil {
		cd.mat = materializeMoves(cd.base, cd.moves)
	}
	return cd.mat
}

// propose appends up to k candidates drawn from c with rng, each checked
// against the churn bound around the slot's starting topology. Candidate
// slots beyond len(cands) are reused, move buffers included. ok is false
// when c's state has no valid move; the candidates drawn before stay.
func (o *Owan) propose(rng *rand.Rand, current *topology.LinkSet, c *chain, cands []candidate, k int) ([]candidate, bool) {
	if !c.fresh {
		c.links = c.s.AppendLinks(c.links[:0])
		c.total = c.s.TotalCircuits()
		if o.cfg.MaxChurn > 0 {
			c.churn = current.Diff(c.s)
		}
		c.fresh = true
	}
	for i := 0; i < k; i++ {
		n := len(cands)
		if n < cap(cands) {
			cands = cands[:n+1]
		} else {
			cands = append(cands, candidate{})
		}
		cd := &cands[n]
		mv, ok := o.neighborMoves(rng, c.links, c.total, cd.moves[:0])
		cd.moves = mv
		if !ok {
			return cands[:n], false
		}
		cd.base, cd.links, cd.mat, cd.eval = c.s, c.links, nil, true
		if o.cfg.MaxChurn > 0 {
			// Churn against the starting topology changes only on the pairs
			// the moves touch.
			churn := c.churn
			o.nbAcc = accumMoves(mv, o.nbAcc[:0])
			for _, pd := range o.nbAcc {
				cur := current.Get(pd.u, pd.v)
				b := linksGet(c.links, pd.u, pd.v)
				churn += abs(cur-b-pd.d) - abs(cur-b)
			}
			cd.eval = churn <= o.cfg.MaxChurn
		}
	}
	return cands, true
}
