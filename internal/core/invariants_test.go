package core

import (
	"fmt"
	"math/rand"
	"testing"

	"owan/internal/topology"
	"owan/internal/transfer"
)

// TestSwapInvariantsProperty checks the Algorithm 2 invariant directly: a
// neighbor move rewires circuit endpoints but never changes any site's
// port usage. For many seeds and all three evaluation topologies, walk a
// long chain of ComputeNeighbor moves (both from the warm-start and from a
// random initial topology) and assert per-site Degree and TotalCircuits
// are invariant and PortViolations never increases.
func TestSwapInvariantsProperty(t *testing.T) {
	type build struct {
		name string
		net  func(seed int64) *topology.Network
	}
	builds := []build{
		{"internet2", func(int64) *topology.Network { return topology.Internet2(8) }},
		{"isp", func(seed int64) *topology.Network { return topology.ISP(18, 6, seed) }},
		{"interdc", func(seed int64) *topology.Network { return topology.InterDC(14, 4, 6, seed) }},
	}
	for _, b := range builds {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", b.name, seed), func(t *testing.T) {
				net := b.net(seed)
				moves := 1 + int(seed)%3 // exercise multi-swap neighbors too
				o := New(Config{Net: net, Policy: transfer.SJF, Seed: seed, NeighborMoves: moves})
				starts := []*topology.LinkSet{
					topology.InitialTopology(net),
					topology.RandomTopology(net, seed),
				}
				for si, s := range starts {
					degrees := make([]int, net.NumSites())
					for v := range degrees {
						degrees[v] = s.Degree(v)
					}
					circuits := s.TotalCircuits()
					violations := s.PortViolations(net)
					for iter := 0; iter < 150; iter++ {
						n := o.ComputeNeighbor(s)
						if n == nil {
							if circuits >= 2 {
								t.Fatalf("start %d iter %d: nil neighbor on a swappable topology", si, iter)
							}
							break
						}
						for v := range degrees {
							if n.Degree(v) != degrees[v] {
								t.Fatalf("start %d iter %d: degree of site %d changed %d -> %d",
									si, iter, v, degrees[v], n.Degree(v))
							}
						}
						if got := n.TotalCircuits(); got != circuits {
							t.Fatalf("start %d iter %d: total circuits changed %d -> %d", si, iter, circuits, got)
						}
						if got := n.PortViolations(net); got > violations {
							t.Fatalf("start %d iter %d: port violations increased %d -> %d", si, iter, violations, got)
						}
						s = n
					}
				}
			})
		}
	}
}

// TestSwapOnceRejectsDegenerate drives single-swap neighbor generation over
// random multisets: whenever it returns a state, the multiset invariants hold
// and no self links appear; degenerate inputs yield nil rather than panic.
func TestSwapOnceRejectsDegenerate(t *testing.T) {
	net := topology.Internet2(8)
	o := New(Config{Net: net, Policy: transfer.SJF, Seed: 99})
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(8)
		s := topology.NewLinkSet(n)
		for i := 0; i < rng.Intn(10); i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				s.Add(u, v, 1+rng.Intn(2))
			}
		}
		before := s.TotalCircuits()
		out := o.ComputeNeighbor(s)
		if out == nil {
			continue
		}
		if out.TotalCircuits() != before {
			t.Fatalf("trial %d: circuit count changed %d -> %d", trial, before, out.TotalCircuits())
		}
		for _, l := range out.Links() {
			if l.U == l.V {
				t.Fatalf("trial %d: self link %v", trial, l)
			}
			if l.Count <= 0 {
				t.Fatalf("trial %d: nonpositive count %v", trial, l)
			}
		}
	}
}
