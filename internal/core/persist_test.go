package core

import (
	"fmt"
	"math/rand"
	"testing"

	"owan/internal/topology"
)

// disablePersistence flips a controller into the pre-persistence mode used as
// the differential reference: a throwaway evaluator per ComputeNetworkState
// call and no cross-slot provision cache. Everything else — RNG, config,
// optical state — is untouched, so the two modes share a trajectory exactly
// when persistence is inert.
func disablePersistence(o *Owan) {
	o.disablePersist = true
	o.provCache = nil
}

// persistNets mixes small comfortable networks with a >64-site ISP so the cross-slot contract is also pinned on the multi-word
// mask paths.
func persistNets() []*topology.Network {
	return []*topology.Network{
		topology.Internet2(6),
		topology.Internet2(10),
		topology.ISP(12, 6, 1),
		topology.ISP(18, 8, 2),
		topology.ISP(70, 8, 1),
		topology.Square(),
	}
}

// TestPersistentEvaluatorMatchesFresh is the cross-slot differential for the
// persistent evaluator and provision cache: across 300 randomized seeds, a
// controller that keeps its evaluator (worker pool, scratch, provision LRU)
// across slots must produce bit-identical per-slot results to one that
// rebuilds everything each slot — including across a WithoutFiber failure
// event, after which both continue on fresh controllers for the smaller
// network. The persistent side must also actually hit its provision cache
// somewhere in the run, so the contract cannot pass vacuously.
func TestPersistentEvaluatorMatchesFresh(t *testing.T) {
	nets := persistNets()
	seeds := int64(300)
	if testing.Short() {
		seeds = 60
	}
	totalProvHits := 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(11000 + seed))
		net := nets[int(seed)%len(nets)]
		sites := len(net.Sites)
		iters := 40 + rng.Intn(40)
		if sites > 64 {
			iters = 20 // big nets pay O(n^2) per energy; keep the run bounded
		}
		cfg := Config{
			Net:           net,
			Seed:          seed,
			MaxIterations: iters,
			BatchSize:     1 + rng.Intn(4),
			Workers:       []int{1, 1, 4}[rng.Intn(3)],
		}

		pers := New(cfg)
		fresh := New(cfg)
		disablePersistence(fresh)

		curP := topology.InitialTopology(net)
		curF := curP.Clone()
		for slot := 0; slot < 4; slot++ {
			if slot == 2 && len(net.Fibers) > 1 {
				// Fail a fiber mid-run on both sides. WithoutFiber returns a
				// fresh controller; the persistent one must keep matching even
				// though it migrates still-valid provision-cache entries across
				// the failure (the fresh side gets no cache at all), and the
				// old pool is closed.
				fid := net.Fibers[len(net.Fibers)/2].ID
				oldP, oldF := pers, fresh
				pers = pers.WithoutFiber(fid)
				fresh = fresh.WithoutFiber(fid)
				oldP.Close()
				oldF.Close()
				disablePersistence(fresh)
			}
			slotRng := rand.New(rand.NewSource(seed*31 + int64(slot)))
			ts := randTransfers(slotRng, sites)
			if len(ts) == 0 {
				continue
			}
			ref := fresh.ComputeNetworkState(curF, ts, slot, 300)
			got := pers.ComputeNetworkState(curP, ts, slot, 300)
			name := fmt.Sprintf("seed %d slot %d net %s w%d b%d",
				seed, slot, net.Name, cfg.Workers, cfg.BatchSize)
			sameSearch(t, name, ref, got)
			if ref.Stats.ProvisionHits != 0 || ref.Stats.ProvisionMisses != 0 {
				t.Fatalf("%s: provision counters nonzero with persistence off: %+v", name, ref.Stats)
			}
			totalProvHits += got.Stats.ProvisionHits
			curP, curF = got.Topology, ref.Topology
		}
		pers.Close()
		fresh.Close()
	}
	if totalProvHits == 0 {
		t.Fatal("no provision-cache hits across the run — the persistent cache never fired")
	}
	t.Logf("provision hits=%d", totalProvHits)
}
