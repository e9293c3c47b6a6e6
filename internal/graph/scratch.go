package graph

import (
	"math"
	"math/bits"
)

// Scratch holds the per-query buffers of the shortest-path routines so that
// repeated queries — the regenerator-route searches the optical layer issues
// for every circuit of every candidate topology — stop allocating fresh
// dist/seen/prev arrays and heaps each time. A Scratch may be reused across
// graphs of different sizes (buffers grow monotonically) but must not be
// shared between goroutines.
type Scratch struct {
	dist []float64
	prev []Edge
	seen []bool
	h    heap
	// Yen's-algorithm spur filters, reused by KShortestPathsScratch: the
	// root-path vertices removed for the current spur search and the
	// (from,to,id) triples of banned deviation edges. The banned set holds at
	// most one edge per already-found path (≤ k entries), so a linear scan
	// beats any hashed structure.
	removed []bool
	banned  [][3]int
	// Multi-word visited set of MaskShortestNodeWeightedW (the >64-vertex
	// twin of the single-word seen register).
	seenW []uint64
}

// grow sizes the buffers for a graph with n vertices.
func (sc *Scratch) grow(n int) {
	if cap(sc.dist) < n {
		sc.dist = make([]float64, n)
		sc.prev = make([]Edge, n)
		sc.seen = make([]bool, n)
	}
	sc.dist = sc.dist[:n]
	sc.prev = sc.prev[:n]
	sc.seen = sc.seen[:n]
}

// Reset reshapes the graph to n vertices with no edges while retaining the
// adjacency backing arrays, so rebuilding a transit graph of similar size
// allocates nothing in steady state.
func (g *Graph) Reset(n int) {
	if cap(g.adj) >= n {
		g.adj = g.adj[:n]
	} else {
		g.adj = append(g.adj[:cap(g.adj)], make([][]Edge, n-cap(g.adj))...)
	}
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
	g.n = n
}

// MaskShortestNodeWeighted runs Dijkstra over the vertex set given by the
// set bits of nodeMask (vertex ids below 64), where a directed edge u->v
// exists iff bit v of reach[u]&nodeMask is set and carries the weight of
// its HEAD node, w[v] — the node-weighted transit-graph transform of the
// optical layer, evaluated without materializing the graph. The vertex
// sequence src..dst is appended to hops; ok reports reachability.
//
// Results are bit-identical to building the transit graph over the same
// vertex set (neighbors enumerated in ascending id order) and running
// ShortestPathScratch on it: the push sequence this loop feeds the heap is
// value- and order-identical, the heap breaks distance ties purely by array
// position, and the relaxation test is the same strict comparison — so the
// same path falls out, just without the O(V²) edge-list build.
func MaskShortestNodeWeighted(sc *Scratch, reach []uint64, nodeMask uint64, w []float64, src, dst int, hops []int) (_ []int, ok bool) {
	n := len(reach)
	sc.grow(n)
	dist, prev := sc.dist, sc.prev
	for m := nodeMask; m != 0; m &= m - 1 {
		v := bits.TrailingZeros64(m)
		dist[v] = math.Inf(1)
		prev[v].From = -1
	}
	dist[src] = 0
	var seen uint64
	sc.h = sc.h[:0]
	sc.h.push(item{src, 0})
	for len(sc.h) > 0 {
		it := sc.h.pop()
		if seen>>uint(it.v)&1 == 1 {
			continue
		}
		seen |= 1 << uint(it.v)
		if it.v == dst {
			break
		}
		du := dist[it.v]
		for m := reach[it.v] & nodeMask; m != 0; m &= m - 1 {
			v := bits.TrailingZeros64(m)
			if nd := du + w[v]; nd < dist[v] {
				dist[v] = nd
				prev[v].From = it.v
				sc.h.push(item{v, nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return hops, false
	}
	i := len(hops)
	for v := dst; v != src; v = prev[v].From {
		hops = append(hops, v)
	}
	hops = append(hops, src)
	for a, b := i, len(hops)-1; a < b; a, b = a+1, b-1 {
		hops[a], hops[b] = hops[b], hops[a]
	}
	return hops, true
}

// MaskShortestNodeWeightedW is MaskShortestNodeWeighted for vertex sets past
// one word: reach holds `words` uint64 per vertex (bitset layout, row-major),
// nodeMask is one `words`-long bitset, and vertex ids run to 64*words. The
// relaxation loop scans each reach row word-ascending then bit-ascending —
// ascending vertex id, the same neighbor order as the single-word loop and
// the materialized transit graph — so the heap push sequence, tie-breaks,
// and resulting path are bit-identical to both.
func MaskShortestNodeWeightedW(sc *Scratch, reach []uint64, words int, nodeMask []uint64, w []float64, src, dst int, hops []int) (_ []int, ok bool) {
	n := len(reach) / words
	sc.grow(n)
	dist, prev := sc.dist, sc.prev
	for wi, mw := range nodeMask {
		base := wi << 6
		for m := mw; m != 0; m &= m - 1 {
			v := base + bits.TrailingZeros64(m)
			dist[v] = math.Inf(1)
			prev[v].From = -1
		}
	}
	dist[src] = 0
	if cap(sc.seenW) < words {
		sc.seenW = make([]uint64, words)
	}
	seen := sc.seenW[:words]
	for i := range seen {
		seen[i] = 0
	}
	sc.h = sc.h[:0]
	sc.h.push(item{src, 0})
	for len(sc.h) > 0 {
		it := sc.h.pop()
		if seen[it.v>>6]>>(uint(it.v)&63)&1 == 1 {
			continue
		}
		seen[it.v>>6] |= 1 << (uint(it.v) & 63)
		if it.v == dst {
			break
		}
		du := dist[it.v]
		row := reach[it.v*words : it.v*words+words]
		for wi := 0; wi < words; wi++ {
			m := row[wi] & nodeMask[wi]
			if m == 0 {
				continue
			}
			base := wi << 6
			for ; m != 0; m &= m - 1 {
				v := base + bits.TrailingZeros64(m)
				if nd := du + w[v]; nd < dist[v] {
					dist[v] = nd
					prev[v].From = it.v
					sc.h.push(item{v, nd})
				}
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return hops, false
	}
	i := len(hops)
	for v := dst; v != src; v = prev[v].From {
		hops = append(hops, v)
	}
	hops = append(hops, src)
	for a, b := i, len(hops)-1; a < b; a, b = a+1, b-1 {
		hops[a], hops[b] = hops[b], hops[a]
	}
	return hops, true
}

// ShortestPathScratch is ShortestPath with caller-owned scratch buffers: the
// Dijkstra state lives in sc and only the returned *Path (which escapes to
// the caller) is freshly allocated. Results are identical to ShortestPath.
func (g *Graph) ShortestPathScratch(sc *Scratch, src, dst int) *Path {
	g.dijkstra(sc, src, dst)
	return sc.path(src, dst)
}

// ShortestTreeScratch runs Dijkstra from src to exhaustion and returns the
// shortest-path tree: dist[v] is the distance to v (Inf when unreachable)
// and prev[v] the last edge of the path to v (From -1 for src and for
// unreachable vertices). Both slices alias sc and are valid until its next
// use.
//
// The predecessor chain to any dst is edge for edge the path
// ShortestPathScratch(sc, src, dst) returns, with the same distance bits.
// Both run the same loop, which only stops early in ShortestPathScratch:
// up to the moment dst is settled the heap sees the same pushes in the same
// order, and afterwards nothing on the chain can change — dst and every
// vertex on its chain are already settled, and a later relaxation offers
// dist[x]+w >= dist[dst] (float addition of a nonnegative weight is
// monotone), which fails the strict < test.
func (g *Graph) ShortestTreeScratch(sc *Scratch, src int) (dist []float64, prev []Edge) {
	g.dijkstra(sc, src, -1)
	return sc.dist, sc.prev
}

// dijkstra runs Dijkstra from src over g into sc.dist/sc.prev, stopping as
// soon as stop is settled (stop < 0 settles every reachable vertex). Ties are
// broken by insertion order: relaxation is a strict <, and the heap breaks
// distance ties by array position.
func (g *Graph) dijkstra(sc *Scratch, src, stop int) {
	sc.grow(g.n)
	dist, prev, seen := sc.dist, sc.prev, sc.seen
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = Edge{From: -1}
		seen[i] = false
	}
	dist[src] = 0
	sc.h = sc.h[:0]
	sc.h.push(item{src, 0})
	for len(sc.h) > 0 {
		it := sc.h.pop()
		if seen[it.v] {
			continue
		}
		seen[it.v] = true
		if it.v == stop {
			break
		}
		for _, e := range g.adj[it.v] {
			if nd := dist[it.v] + e.Weight; nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = e
				sc.h.push(item{e.To, nd})
			}
		}
	}
}

// path extracts the src->dst path from the predecessor edges a Dijkstra run
// left in sc, or nil when dst was not reached.
func (sc *Scratch) path(src, dst int) *Path {
	if math.IsInf(sc.dist[dst], 1) {
		return nil
	}
	var edges []Edge
	for v := dst; v != src; v = sc.prev[v].From {
		edges = append(edges, sc.prev[v])
	}
	reverse(edges)
	return &Path{Edges: edges, Weight: sc.dist[dst]}
}

// shortestPathFiltered is ShortestPathScratch restricted to the subgraph
// obtained by deleting the vertices marked in removed and the individual
// edges listed in banned. Removed vertices are skipped on the relaxation
// side; since no edge into them ever relaxes, they are never expanded, which
// is exactly equivalent to deleting them (the spur source is never removed).
func (g *Graph) shortestPathFiltered(sc *Scratch, src, dst int, removed []bool, banned [][3]int) *Path {
	sc.grow(g.n)
	dist, prev, seen := sc.dist, sc.prev, sc.seen
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = Edge{From: -1}
		seen[i] = false
	}
	dist[src] = 0
	sc.h = sc.h[:0]
	sc.h.push(item{src, 0})
	for len(sc.h) > 0 {
		it := sc.h.pop()
		if seen[it.v] {
			continue
		}
		seen[it.v] = true
		if it.v == dst {
			break
		}
		for _, e := range g.adj[it.v] {
			if removed[e.To] || bannedEdge(banned, e) {
				continue
			}
			if nd := dist[it.v] + e.Weight; nd < dist[e.To] {
				dist[e.To] = nd
				prev[e.To] = e
				sc.h.push(item{e.To, nd})
			}
		}
	}
	return sc.path(src, dst)
}

func bannedEdge(banned [][3]int, e Edge) bool {
	for _, b := range banned {
		if b[0] == e.From && b[1] == e.To && b[2] == e.ID {
			return true
		}
	}
	return false
}

// KShortestPathsScratch is KShortestPaths with caller-owned scratch: all
// internal Dijkstra runs share sc's buffers, and the per-spur-node filtering
// happens inline during edge relaxation instead of materializing a filtered
// copy of the graph. Results are identical to KShortestPaths: the filtered
// search relaxes exactly the edges the subgraph copy would contain, in the
// same order, so ties break the same way.
func (g *Graph) KShortestPathsScratch(sc *Scratch, src, dst, k int) []*Path {
	if k <= 0 {
		return nil
	}
	first := g.ShortestPathScratch(sc, src, dst)
	if first == nil {
		return nil
	}
	if cap(sc.removed) < g.n {
		sc.removed = make([]bool, g.n)
	}
	removed := sc.removed[:g.n]
	for i := range removed {
		removed[i] = false
	}
	result := []*Path{first}
	var candidates []*Path
	for len(result) < k {
		prevPath := result[len(result)-1]
		prevVerts := prevPath.Vertices()
		for i := 0; i < len(prevPath.Edges); i++ {
			spurNode := prevVerts[i]
			rootEdges := prevPath.Edges[:i]
			banned := sc.banned[:0]
			for _, p := range result {
				if pathHasPrefix(p, rootEdges) && len(p.Edges) > i {
					e := p.Edges[i]
					banned = append(banned, [3]int{e.From, e.To, e.ID})
				}
			}
			sc.banned = banned
			for _, v := range prevVerts[:i] {
				removed[v] = true
			}
			spur := g.shortestPathFiltered(sc, spurNode, dst, removed, banned)
			for _, v := range prevVerts[:i] {
				removed[v] = false
			}
			if spur == nil {
				continue
			}
			var total []Edge
			total = append(total, rootEdges...)
			total = append(total, spur.Edges...)
			w := spur.Weight
			for _, e := range rootEdges {
				w += e.Weight
			}
			cand := &Path{Edges: total, Weight: w}
			if !containsPath(candidates, cand) && !containsPath(result, cand) {
				candidates = append(candidates, cand)
			}
		}
		if len(candidates) == 0 {
			break
		}
		stableSortByWeight(candidates)
		result = append(result, candidates[0])
		candidates = candidates[1:]
	}
	return result
}
