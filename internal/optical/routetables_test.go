package optical

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"owan/internal/bitset"
	"owan/internal/graph"
	"owan/internal/topology"
)

// buildRouteTablesYen is the all-pairs reference builder: Yen's k-shortest
// paths for every ordered site pair, the primary taken as Yen's first path.
// It is the oracle buildRouteTables must reproduce field for field.
func buildRouteTablesYen(net *topology.Network) *routeTables {
	ns := net.NumSites()
	rt := &routeTables{
		fiberGraph: net.FiberGraph(),
		pairDist:   make([][]float64, ns),
		pairPath:   make([][][]int, ns),
		pairAlts:   make([][][]fiberRoute, ns),
		inReach:    make([]bool, ns*ns),
	}
	var sc graph.Scratch
	for u := 0; u < ns; u++ {
		rt.pairDist[u] = rt.fiberGraph.ShortestDistances(u)
		rt.pairPath[u] = make([][]int, ns)
		rt.pairAlts[u] = make([][]fiberRoute, ns)
		for v := 0; v < ns; v++ {
			if u == v || math.IsInf(rt.pairDist[u][v], 1) {
				continue
			}
			paths := rt.fiberGraph.KShortestPathsScratch(&sc, u, v, kFiberPaths)
			for pi, p := range paths {
				ids := make([]int, len(p.Edges))
				for i, e := range p.Edges {
					ids[i] = e.ID
				}
				if pi == 0 {
					rt.pairPath[u][v] = ids
				} else if p.Weight <= net.ReachKm {
					// Alternates are only useful if they themselves stay
					// within optical reach.
					rt.pairAlts[u][v] = append(rt.pairAlts[u][v], fiberRoute{ids: ids, km: p.Weight})
				}
			}
			rt.inReach[u*ns+v] = rt.pairDist[u][v] <= net.ReachKm && rt.pairPath[u][v] != nil
		}
	}
	rt.maskW = bitset.Words(ns)
	if ns <= 64 {
		rt.reachMask = make([]uint64, ns)
		for u := 0; u < ns; u++ {
			for v := 0; v < ns; v++ {
				if rt.inReach[u*ns+v] {
					rt.reachMask[u] |= 1 << uint(v)
				}
			}
		}
	} else {
		rt.reachMaskW = make(bitset.Set, ns*rt.maskW)
		for u := 0; u < ns; u++ {
			row := rt.reachMaskW[u*rt.maskW : (u+1)*rt.maskW]
			for v := 0; v < ns; v++ {
				if rt.inReach[u*ns+v] {
					row.Set(v)
				}
			}
		}
	}
	// Static regenerator reachability: one BFS per source over the reach
	// adjacency, expanding only through sites whose static regenerator pool
	// is nonzero (the source itself needs no regenerator to transmit).
	rt.regenReach = make(bitset.Set, ns*rt.maskW)
	queue := make([]int, 0, ns)
	seen := make([]bool, ns)
	for u := 0; u < ns; u++ {
		row := rt.regenReach[u*rt.maskW : (u+1)*rt.maskW]
		clear(seen)
		seen[u] = true
		queue = append(queue[:0], u)
		for head := 0; head < len(queue); head++ {
			x := queue[head]
			for v := 0; v < ns; v++ {
				if seen[v] || !rt.inReach[x*ns+v] {
					continue
				}
				seen[v] = true
				row.Set(v)
				if net.Sites[v].Regenerators > 0 {
					queue = append(queue, v)
				}
			}
		}
	}
	return rt
}

// tieGrid builds a w x h grid of sites joined by fibers of one integer
// length, so equal-cost primaries and alternates abound and the tie-break
// order of the route tables is actually exercised. With 500 km spans and
// the default 2000 km reach, pairs four hops apart sit exactly at reach.
func tieGrid(w, h int) *topology.Network {
	n := &topology.Network{
		Name:      "grid",
		ThetaGbps: topology.DefaultThetaGbps,
		ReachKm:   topology.DefaultReachKm,
	}
	for i := 0; i < w*h; i++ {
		n.Sites = append(n.Sites, topology.Site{ID: i, Name: fmt.Sprint("G", i), RouterPorts: 8, HasRouter: true})
	}
	addFiber := func(a, b int) {
		n.Fibers = append(n.Fibers, topology.Fiber{ID: len(n.Fibers), A: a, B: b, LengthKm: 500, Wavelengths: topology.DefaultWavelengths})
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				addFiber(y*w+x, y*w+x+1)
			}
			if y+1 < h {
				addFiber(y*w+x, (y+1)*w+x)
			}
		}
	}
	n.PlaceRegenerators(topology.DefaultRegenPool)
	return n
}

// withoutHubFiber returns a copy of net lacking one fiber of its
// highest-degree site, built the way core.Owan.WithoutFiber builds it: the
// fiber is cut out of the slice and the rest keep their IDs, which leaves a
// gap in the fiber IDs.
func withoutHubFiber(net *topology.Network) *topology.Network {
	deg := make([]int, net.NumSites())
	for _, f := range net.Fibers {
		deg[f.A]++
		deg[f.B]++
	}
	hub := 0
	for v := range deg {
		if deg[v] > deg[hub] {
			hub = v
		}
	}
	idx := -1
	for i, f := range net.Fibers {
		if f.A == hub || f.B == hub {
			idx = i
			break
		}
	}
	clone := *net
	clone.Fibers = append(append([]topology.Fiber(nil), net.Fibers[:idx]...), net.Fibers[idx+1:]...)
	return &clone
}

// TestRouteTablesMatchReference is the route-table differential: the
// tree-plus-in-reach-Yen builder must reproduce the all-pairs Yen reference
// in every field — distances, primaries, alternates with their km, the reach
// adjacency, both reach-mask layouts and the static regenerator
// reachability. The ISP200-scale networks are skipped under the race
// detector, where the reference alone runs for minutes.
func TestRouteTablesMatchReference(t *testing.T) {
	type tc struct {
		name  string
		net   func() *topology.Network
		large bool
	}
	cases := []tc{
		{"internet2", func() *topology.Network { return topology.Internet2(15) }, false},
		{"interdc", func() *topology.Network { return topology.InterDC(25, 5, 8, 1) }, false},
		{"grid-6x6", func() *topology.Network { return tieGrid(6, 6) }, false},
		{"grid-9x8", func() *topology.Network { return tieGrid(9, 8) }, false},
	}
	for _, seed := range []int64{1, 2, 3} {
		for _, sites := range []int{40, 100, 200} {
			cases = append(cases, tc{fmt.Sprintf("isp%d-seed%d", sites, seed),
				func() *topology.Network { return topology.ISP(sites, 8, seed) }, sites == 200})
		}
	}
	cases = append(cases, tc{"isp200-seed1-without-hub-fiber",
		func() *topology.Network { return withoutHubFiber(topology.ISP(200, 8, 1)) }, true})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.large && raceEnabled {
				t.Skip("ISP200 reference too slow under the race detector")
			}
			net := c.net()
			got, want := buildRouteTables(net), buildRouteTablesYen(net)
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"pairDist", got.pairDist, want.pairDist},
				{"pairPath", got.pairPath, want.pairPath},
				{"pairAlts", got.pairAlts, want.pairAlts},
				{"inReach", got.inReach, want.inReach},
				{"reachMask", got.reachMask, want.reachMask},
				{"reachMaskW", got.reachMaskW, want.reachMaskW},
				{"maskW", got.maskW, want.maskW},
				{"regenReach", got.regenReach, want.regenReach},
				{"fiberGraph", got.fiberGraph, want.fiberGraph},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Errorf("%s differs from the all-pairs Yen reference%s", f.name, firstPairDiff(got, want))
				}
			}
		})
	}
}

// firstPairDiff names the first ordered pair whose distance, primary or
// alternates differ, for a readable failure.
func firstPairDiff(got, want *routeTables) string {
	for u := range want.pairDist {
		for v := range want.pairDist[u] {
			if math.Float64bits(got.pairDist[u][v]) != math.Float64bits(want.pairDist[u][v]) ||
				!reflect.DeepEqual(got.pairPath[u][v], want.pairPath[u][v]) ||
				!reflect.DeepEqual(got.pairAlts[u][v], want.pairAlts[u][v]) {
				return fmt.Sprintf(" (first at %d->%d: dist %v path %v alts %v, want dist %v path %v alts %v)",
					u, v, got.pairDist[u][v], got.pairPath[u][v], got.pairAlts[u][v],
					want.pairDist[u][v], want.pairPath[u][v], want.pairAlts[u][v])
			}
		}
	}
	return ""
}

// TestRouteTablesReferenceCoverage keeps the differential honest: the tie
// grid must really contain equal-cost alternates and pairs exactly at
// reach, and the ISP networks must really contain pairs past reach, whose
// primaries come from the tree alone.
func TestRouteTablesReferenceCoverage(t *testing.T) {
	rt := buildRouteTables(tieGrid(6, 6))
	ties, atReach := 0, 0
	for u := range rt.pairDist {
		for v, d := range rt.pairDist[u] {
			if d == topology.DefaultReachKm {
				atReach++
			}
			for _, a := range rt.pairAlts[u][v] {
				if a.km == d {
					ties++
				}
			}
		}
	}
	if ties == 0 || atReach == 0 {
		t.Fatalf("tie grid: %d equal-cost alternates, %d pairs at reach; want both > 0", ties, atReach)
	}
	net := topology.ISP(100, 8, 1)
	rt = buildRouteTables(net)
	past := 0
	for u := range rt.pairDist {
		for v, d := range rt.pairDist[u] {
			if d > net.ReachKm && rt.pairPath[u][v] != nil {
				past++
			}
		}
	}
	if past == 0 {
		t.Fatal("ISP100: no pair past reach; the tree-only primaries go untested")
	}
}

// BenchmarkRouteTablesISP200 times the cold route-table build of a 200-site
// ISP network, the one-time cost behind NewState (the LRU is bypassed).
func BenchmarkRouteTablesISP200(b *testing.B) {
	net := topology.ISP(200, 8, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		routeTablesSink = buildRouteTables(net)
	}
}

var routeTablesSink *routeTables
