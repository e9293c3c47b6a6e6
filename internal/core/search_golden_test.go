package core_test

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"owan/internal/core"
	"owan/internal/experiments"
	"owan/internal/sim"
	"owan/internal/topology"
	"owan/internal/transfer"
	"owan/internal/workload"
)

// This file pins the annealing search's trajectories with committed digests:
// a multi-slot ISP200 simulation (the BenchmarkSimSlotISP200 configuration)
// and a few dozen tempered and multi-move searches on ISP40 and ISP70. The
// digests were generated before the candidate-evaluation engines were folded
// into one path, so a refactor that changed every trajectory consistently
// still fails here. Each digest is replayed across Workers {1, 2} ×
// ProvisionCacheSize {default, off}: those knobs change wall-clock time only.
//
// Regenerate with UPDATE_SEARCH_GOLDEN=1 go test -run TestSearchGolden ./internal/core
// — only when a change deliberately alters search semantics.

var searchGoldenPath = filepath.Join("testdata", "search_golden.json")

type searchGoldenFile struct {
	// ISP200 holds one digest per simulated slot.
	ISP200 []string `json:"isp200"`
	// Searches maps a case seed to the digest of its 3-slot walk.
	Searches map[string]string `json:"searches"`
}

// searchGoldenKnobs is the replay matrix: every digest must reproduce under
// each (Workers, ProvisionCacheSize) pair. The first entry generates.
var searchGoldenKnobs = []struct{ workers, provCache int }{
	{1, 0}, {1, -1}, {2, 0}, {2, -1},
}

const searchGoldenCases = 36

func readSearchGolden(t *testing.T) searchGoldenFile {
	t.Helper()
	raw, err := os.ReadFile(searchGoldenPath)
	if err != nil {
		t.Fatalf("golden digests missing (generate with UPDATE_SEARCH_GOLDEN=1): %v", err)
	}
	var g searchGoldenFile
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatalf("parse %s: %v", searchGoldenPath, err)
	}
	return g
}

func word(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

// keyScheduler wraps the Owan scheduler to record, per scheduled slot, a hash
// of the chosen topology's canonical key and the search's best energy.
type keyScheduler struct {
	*sim.OwanScheduler
	keys     map[int]uint64
	energies map[int]float64
}

func (k *keyScheduler) Schedule(slot int, topo *topology.LinkSet, active []*transfer.Transfer) (*topology.LinkSet, map[int][]transfer.PathRate) {
	s, alloc := k.OwanScheduler.Schedule(slot, topo, active)
	k.keys[slot] = topology.KeyHash(s.AppendKey(nil))
	k.energies[slot] = k.LastStats.BestEnergy
	return s, alloc
}

var isp200Golden = sync.OnceValues(func() (*topology.Network, []transfer.Request) {
	net := topology.ISP(200, 8, 1)
	reqs, err := workload.Generate(workload.Config{
		Sites: net.NumSites(), MeanSizeGbits: 2 * workload.TB,
		TotalDemandGbits: 400 * workload.TB, Load: 1, DurationSlots: 3, Seed: 7,
	})
	if err != nil {
		panic(err)
	}
	return net, reqs
})

// isp200Digests runs the BenchmarkSimSlotISP200 simulation (default search
// configuration, consistent-update planning on) and digests every slot:
// churn, goodput bits, the chosen topology's key hash and the best energy.
func isp200Digests(t *testing.T, workers, provCache int) []string {
	net, reqs := isp200Golden()
	o := core.New(core.Config{
		Net: net, Policy: transfer.SJF, Seed: 11,
		MaxIterations: 30, BatchSize: 8, Workers: workers,
		ProvisionCacheSize: provCache,
	})
	sched := &keyScheduler{
		OwanScheduler: &sim.OwanScheduler{O: o, SlotSeconds: experiments.SlotSeconds},
		keys:          map[int]uint64{}, energies: map[int]float64{},
	}
	res, err := sim.Run(sim.Config{
		Net: net, Initial: topology.InitialTopology(net),
		Scheduler: sched, Requests: reqs,
		SlotSeconds: experiments.SlotSeconds, MaxSlots: 60,
		ReconfigSeconds: 4,
		PlanUpdates:     true,
	})
	sched.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, res.Slots)
	for i := range out {
		h := fnv.New64a()
		word(h, uint64(res.Churn[i]))
		word(h, math.Float64bits(res.SlotThroughput[i]))
		word(h, sched.keys[i])
		word(h, math.Float64bits(sched.energies[i]))
		out[i] = fmt.Sprintf("%016x", h.Sum64())
	}
	return out
}

var searchGoldenNets = sync.OnceValue(func() []*topology.Network {
	return []*topology.Network{topology.ISP(40, 10, 1), topology.ISP(70, 8, 1)}
})

// searchCaseConfig draws one case's configuration from a seed-local RNG:
// tempered ladders of 2 or 4 rungs (and single chains) with and without warm
// start, one- and two-swap neighbors, bounded and unbounded churn.
func searchCaseConfig(seed int64, net *topology.Network) core.Config {
	rng := rand.New(rand.NewSource(31000 + seed))
	cfg := core.Config{
		Net:           net,
		Policy:        transfer.SJF,
		Seed:          seed,
		MaxIterations: 16 + rng.Intn(24),
		BatchSize:     1 + rng.Intn(4),
		Replicas:      []int{1, 2, 4}[rng.Intn(3)],
		WarmStart:     rng.Intn(2) == 0,
		NeighborMoves: 1 + rng.Intn(2),
	}
	if rng.Intn(4) == 0 {
		cfg.MaxChurn = -1
	}
	return cfg
}

func goldenTransfers(rng *rand.Rand, sites int) []*transfer.Transfer {
	var ts []*transfer.Transfer
	for i := 0; i < 4+rng.Intn(12); i++ {
		s, d := rng.Intn(sites), rng.Intn(sites)
		if s == d {
			continue
		}
		ts = append(ts, transfer.NewTransfer(transfer.Request{
			ID: i, Src: s, Dst: d, SizeGbits: float64(200 + rng.Intn(5000)), Deadline: transfer.NoDeadline,
		}))
	}
	return ts
}

// searchCaseDigest runs one case's 3-slot walk on a persistent controller —
// warm slot-to-slot starts, a WithoutFiber failure before the last slot — and
// folds every slot's result into one digest.
func searchCaseDigest(seed int64, workers, provCache int) string {
	nets := searchGoldenNets()
	net := nets[int(seed)%len(nets)]
	cfg := searchCaseConfig(seed, net)
	cfg.Workers, cfg.ProvisionCacheSize = workers, provCache
	o := core.New(cfg)
	defer func() { o.Close() }()

	h := fnv.New64a()
	cur := topology.InitialTopology(net)
	for slot := 0; slot < 3; slot++ {
		if slot == 2 {
			old := o
			o = o.WithoutFiber(net.Fibers[len(net.Fibers)/3].ID)
			old.Close()
		}
		ts := goldenTransfers(rand.New(rand.NewSource(seed*97+int64(slot))), len(net.Sites))
		st := o.ComputeNetworkState(cur, ts, slot, 300)
		h.Write(st.Topology.AppendKey(nil))
		h.Write(st.Effective.AppendKey(nil))
		word(h, math.Float64bits(st.Stats.BestEnergy))
		word(h, math.Float64bits(st.Stats.InitialEnergy))
		word(h, math.Float64bits(st.Stats.InitialTemp))
		word(h, uint64(st.Stats.Iterations))
		word(h, uint64(st.Stats.Accepted))
		word(h, uint64(st.Stats.Churn))
		word(h, uint64(st.Stats.Exchanges))
		if st.Stats.EarlyExit {
			word(h, 1)
		}
		cur = st.Topology
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func writeSearchGolden(t *testing.T) {
	g := searchGoldenFile{Searches: map[string]string{}}
	k := searchGoldenKnobs[0]
	g.ISP200 = isp200Digests(t, k.workers, k.provCache)
	for seed := int64(0); seed < searchGoldenCases; seed++ {
		g.Searches[fmt.Sprint(seed)] = searchCaseDigest(seed, k.workers, k.provCache)
	}
	raw, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(searchGoldenPath, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d slot and %d search digests to %s", len(g.ISP200), len(g.Searches), searchGoldenPath)
}

// TestSearchGoldenISP200 replays the multi-slot ISP200 digests across the
// knob matrix and names the first slot that diverges. Skipped under -race:
// the simulation takes minutes with the detector on.
func TestSearchGoldenISP200(t *testing.T) {
	if os.Getenv("UPDATE_SEARCH_GOLDEN") != "" {
		writeSearchGolden(t)
		return
	}
	if raceEnabled {
		t.Skip("ISP200 simulation is too slow under -race")
	}
	if testing.Short() {
		t.Skip("multi-slot ISP200 simulation")
	}
	want := readSearchGolden(t).ISP200
	if len(want) == 0 {
		t.Fatal("no ISP200 digests")
	}
	for _, k := range searchGoldenKnobs {
		got := isp200Digests(t, k.workers, k.provCache)
		for i := 0; i < min(len(got), len(want)); i++ {
			if got[i] != want[i] {
				t.Fatalf("workers=%d provCache=%d: slot %d diverged: digest %s != golden %s",
					k.workers, k.provCache, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d provCache=%d: %d slots, golden has %d", k.workers, k.provCache, len(got), len(want))
		}
	}
}

// TestSearchGoldenTempered replays the tempered and multi-move search digests
// across the knob matrix.
func TestSearchGoldenTempered(t *testing.T) {
	if os.Getenv("UPDATE_SEARCH_GOLDEN") != "" {
		t.Skip("digests are written by TestSearchGoldenISP200")
	}
	want := readSearchGolden(t).Searches
	cases := int64(searchGoldenCases)
	if testing.Short() || raceEnabled {
		cases = 8
	}
	for _, k := range searchGoldenKnobs {
		for seed := int64(0); seed < cases; seed++ {
			w, ok := want[fmt.Sprint(seed)]
			if !ok {
				t.Fatalf("case %d missing from %s", seed, searchGoldenPath)
			}
			if got := searchCaseDigest(seed, k.workers, k.provCache); got != w {
				t.Fatalf("case %d (%+v) workers=%d provCache=%d: digest %s != golden %s",
					seed, searchCaseConfig(seed, nil), k.workers, k.provCache, got, w)
			}
		}
	}
}
