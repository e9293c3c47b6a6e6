package core

import (
	"fmt"
	"math/rand"
	"testing"

	"owan/internal/topology"
	"owan/internal/transfer"
)

func randTransfers(rng *rand.Rand, sites int) []*transfer.Transfer {
	var reqs [][3]int
	for i := 0; i < 3+rng.Intn(8); i++ {
		s, d := rng.Intn(sites), rng.Intn(sites)
		if s == d {
			continue
		}
		reqs = append(reqs, [3]int{s, d, 200 + rng.Intn(5000)})
	}
	var ts []*transfer.Transfer
	for i, r := range reqs {
		ts = append(ts, transfer.NewTransfer(transfer.Request{
			ID: i, Src: r[0], Dst: r[1], SizeGbits: float64(r[2]), Deadline: transfer.NoDeadline,
		}))
	}
	return ts
}

func sameSearch(t *testing.T, name string, ref, got *NetworkState) {
	t.Helper()
	if !got.Topology.Equal(ref.Topology) {
		t.Fatalf("%s: topology diverged\n ref=%v\n got=%v", name, ref.Topology.Links(), got.Topology.Links())
	}
	if got.Stats.BestEnergy != ref.Stats.BestEnergy || got.Stats.InitialEnergy != ref.Stats.InitialEnergy {
		t.Fatalf("%s: energies diverged: best %v/%v initial %v/%v",
			name, got.Stats.BestEnergy, ref.Stats.BestEnergy, got.Stats.InitialEnergy, ref.Stats.InitialEnergy)
	}
	if got.Stats.Iterations != ref.Stats.Iterations || got.Stats.Accepted != ref.Stats.Accepted {
		t.Fatalf("%s: chain stats diverged: got %d/%d iterations/accepted, ref %d/%d",
			name, got.Stats.Iterations, got.Stats.Accepted, ref.Stats.Iterations, ref.Stats.Accepted)
	}
	if got.Stats.Churn != ref.Stats.Churn {
		t.Fatalf("%s: churn diverged: %d != %d", name, got.Stats.Churn, ref.Stats.Churn)
	}
	if !got.Effective.Equal(ref.Effective) {
		t.Fatalf("%s: effective topology diverged", name)
	}
}

// refNeighbor is the materializing Algorithm 2 generator the move-list
// generator replaced: every swap samples from the sorted enumeration of the
// LinkSet built so far and clones it.
func refNeighbor(rng *rand.Rand, s *topology.LinkSet, moves int) *topology.LinkSet {
	out := s
	for m := 0; m < moves; m++ {
		n := refSwap(rng, out)
		if n == nil {
			if m > 0 {
				return out
			}
			return nil
		}
		out = n
	}
	return out
}

func refSwap(rng *rand.Rand, s *topology.LinkSet) *topology.LinkSet {
	links := s.Links()
	if len(links) == 0 || s.TotalCircuits() < 2 {
		return nil
	}
	sample := func() (int, int) {
		k := rng.Intn(s.TotalCircuits())
		for _, l := range links {
			if k < l.Count {
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
		if u == p || v == q || u == v || p == q {
			continue
		}
		if s.Get(u, v) == 0 || s.Get(p, q) == 0 {
			continue
		}
		if canonEq(u, v, p, q) && s.Get(u, v) < 2 {
			continue
		}
		n := s.Clone()
		n.Add(u, v, -1)
		n.Add(p, q, -1)
		n.Add(u, p, 1)
		n.Add(v, q, 1)
		return n
	}
	return nil
}

// TestNeighborMovesMatchesComputeNeighbor pins the move generator behind
// both ComputeNeighbor and the search's candidates to the materializing
// reference draw-for-draw: two RNGs sharing a seed must produce identical
// candidate sequences, one as topologies and one as move lists, across a
// random walk of accepted bases.
func TestNeighborMovesMatchesComputeNeighbor(t *testing.T) {
	for _, moves := range []int{1, 2, 3} {
		net := topology.Internet2(6)
		o := New(Config{Net: net, Seed: 99, NeighborMoves: moves})
		refRng := rand.New(rand.NewSource(99))
		cur := topology.InitialTopology(net)
		var links []topology.Link
		var buf []swapMove
		for step := 0; step < 200; step++ {
			want := refNeighbor(refRng, cur, moves)
			links = cur.AppendLinks(links[:0])
			var ok bool
			buf, ok = o.neighborMoves(o.rng, links, cur.TotalCircuits(), buf[:0])
			if (want == nil) != !ok {
				t.Fatalf("moves=%d step %d: generators disagree on feasibility", moves, step)
			}
			if want == nil {
				continue
			}
			got := materializeMoves(cur, buf)
			if !got.Equal(want) {
				t.Fatalf("moves=%d step %d: candidates diverged\n want=%v\n got=%v",
					moves, step, want.Links(), got.Links())
			}
			// Walk both chains to a new base occasionally so later steps
			// sample from evolved topologies.
			if step%3 == 0 {
				cur = want
			}
		}
	}
}

// refSearch is the single-chain annealer the move-list search replaced:
// every proposal is a materialized LinkSet, its churn a full Diff, and its
// energy a from-scratch Energy call with no memo or cache. It mirrors
// classicAnneal's batch semantics on a cold schedule.
func refSearch(net *topology.Network, ts []*transfer.Transfer, cfg Config) (*topology.LinkSet, float64, int, int) {
	cfg.Net = net
	cfg.Policy = transfer.SJF
	cfg = cfg.withDefaults()
	o := New(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	demands := o.demands(ts, 0, 300)
	current := topology.InitialTopology(net)
	sCur := current.Clone()
	eCur := o.Energy(sCur, demands)
	sBest, eBest := sCur, eCur
	T0 := eCur * cfg.InitTempFrac
	if T0 <= 0 {
		T0 = 1
	}
	T, epsilon := T0, cfg.EpsilonFrac*T0
	iters, accepted := 0, 0
	for stop := false; !stop && iters < cfg.MaxIterations && T > epsilon; {
		var cands []*topology.LinkSet
		for len(cands) < min(cfg.BatchSize, cfg.MaxIterations-iters) {
			sN := refNeighbor(rng, sCur, cfg.NeighborMoves)
			if sN == nil {
				stop = true
				break
			}
			cands = append(cands, sN)
		}
		if len(cands) == 0 {
			break
		}
		for _, sN := range cands {
			iters++
			if cfg.MaxChurn < 0 || current.Diff(sN) <= cfg.MaxChurn {
				eN := o.Energy(sN, demands)
				if eN > eBest {
					sBest, eBest = sN, eN
				}
				if accept(eCur, eN, T, rng) {
					sCur, eCur = sN, eN
					accepted++
				}
			}
			T *= cfg.Alpha
			if T <= epsilon {
				stop = true
				break
			}
		}
	}
	return sBest, eBest, iters, accepted
}

// TestDeltaSearchMatchesClassic is the differential for the search's
// candidate path: across 300 randomized (network, workload, configuration)
// seeds, the production search — move-list candidates, incremental churn,
// merged enumerations, the energy memo and the provision cache, on one or
// four workers — must walk exactly the chain of refSearch. The networks
// include the wavelength-starved Square, the ISP40 benchmark topology and a
// regenerator-starved ISP.
func TestDeltaSearchMatchesClassic(t *testing.T) {
	regenStarved := topology.ISP(16, 8, 3)
	regenStarved.PlaceRegenerators(2)
	nets := []*topology.Network{
		topology.Internet2(6),
		topology.Internet2(10),
		topology.ISP(12, 6, 1),
		topology.ISP(18, 8, 2),
		topology.ISP(40, 10, 1),
		regenStarved,
		topology.Square(),
	}
	seeds := int64(300)
	if testing.Short() {
		seeds = 60
	}
	hits := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		net := nets[int(seed)%len(nets)]
		ts := randTransfers(rng, len(net.Sites))
		if len(ts) == 0 {
			continue
		}
		cfg := Config{
			Seed:          seed,
			MaxIterations: 60 + rng.Intn(60),
			BatchSize:     1 + rng.Intn(6),
			Workers:       []int{1, 1, 4}[rng.Intn(3)],
			NeighborMoves: 1 + rng.Intn(2),
		}
		if rng.Intn(4) == 0 {
			cfg.MaxChurn = -1 // unbounded: every candidate evaluates
		}
		sRef, eRef, itRef, accRef := refSearch(net, ts, cfg)
		got := runSearch(net, ts, cfg)
		name := fmt.Sprintf("seed %d net %s w%d b%d m%d", seed, net.Name, cfg.Workers, cfg.BatchSize, cfg.NeighborMoves)
		if !got.Topology.Equal(sRef) || got.Stats.BestEnergy != eRef {
			t.Fatalf("%s: best state diverged: energy %v, reference %v", name, got.Stats.BestEnergy, eRef)
		}
		if got.Stats.Iterations != itRef || got.Stats.Accepted != accRef {
			t.Fatalf("%s: chain stats %d/%d iterations/accepted, reference %d/%d",
				name, got.Stats.Iterations, got.Stats.Accepted, itRef, accRef)
		}
		hits += got.Stats.CacheHits
	}
	if hits == 0 {
		t.Fatal("no energy-memo hits across the run; the memo path never fired")
	}
}
