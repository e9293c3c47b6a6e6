package graph

import (
	"math"
	"math/rand"
	"testing"
)

// tieGraph builds a random multigraph whose weights are drawn from a few
// small values — integers, or tenths so that float sums also round — so
// equal-cost paths, and hence tie-breaks, are common. Half the graphs are
// undirected with parallel arcs, half directed.
func tieGraph(rng *rand.Rand) *Graph {
	n := 2 + rng.Intn(14)
	g := New(n)
	tenths := rng.Intn(2) == 0
	weight := func() float64 {
		w := float64(1 + rng.Intn(4))
		if tenths {
			w /= 10
		}
		return w
	}
	undirected := rng.Intn(2) == 0
	id := 0
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || (undirected && v < u) || rng.Float64() >= 0.4 {
				continue
			}
			for k := 1 + rng.Intn(2); k > 0; k-- {
				if undirected {
					g.AddUndirected(u, v, weight(), id)
				} else {
					g.AddEdge(u, v, weight(), id)
				}
				id++
			}
		}
	}
	return g
}

// TestShortestTreeMatchesShortestPath pins the identity the optical route
// tables rely on: for every source and every destination, the predecessor
// chain of the full shortest-path tree is, edge for edge and with the same
// distance bits, the path ShortestPathScratch returns when it stops early at
// the destination — ties included.
func TestShortestTreeMatchesShortestPath(t *testing.T) {
	var tree, sp Scratch
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := tieGraph(rng)
		for src := 0; src < g.N(); src++ {
			dist, prev := g.ShortestTreeScratch(&tree, src)
			for dst := 0; dst < g.N(); dst++ {
				want := g.ShortestPathScratch(&sp, src, dst)
				if want == nil {
					if !math.IsInf(dist[dst], 1) || prev[dst].From != -1 {
						t.Fatalf("seed %d: %d->%d unreachable, tree has dist %v prev %+v", seed, src, dst, dist[dst], prev[dst])
					}
					continue
				}
				var chain []Edge
				for v := dst; v != src; v = prev[v].From {
					chain = append(chain, prev[v])
				}
				reverse(chain)
				if got := (&Path{Edges: chain, Weight: dist[dst]}); !samePath(want, got) {
					t.Fatalf("seed %d: %d->%d tree chain %+v (%v), ShortestPathScratch %+v (%v)",
						seed, src, dst, got.Edges, got.Weight, want.Edges, want.Weight)
				}
			}
		}
	}
}
