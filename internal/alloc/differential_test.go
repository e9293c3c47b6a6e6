package alloc

import (
	"math/rand"
	"testing"

	"owan/internal/topology"
)

// randomCase draws a random connected-ish topology and demand set. The
// generator deliberately produces saturated, unroutable, and zero-rate
// demands so the differential tests cover every branch of the tier loop.
func randomCase(rng *rand.Rand) (*topology.LinkSet, []Demand, float64) {
	n := 3 + rng.Intn(10)
	ls := topology.NewLinkSet(n)
	// A random spine keeps most sites connected, then random chords.
	for i := 0; i+1 < n; i++ {
		if rng.Float64() < 0.85 {
			ls.Add(i, i+1, 1+rng.Intn(3))
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < 0.25 {
				ls.Add(i, j, 1+rng.Intn(3))
			}
		}
	}
	var ds []Demand
	for i := 0; i < rng.Intn(14); i++ {
		s, d := rng.Intn(n), rng.Intn(n)
		if s == d {
			continue
		}
		rate := rng.Float64() * 60
		if rng.Float64() < 0.1 {
			rate = 0 // already-met demand
		}
		ds = append(ds, Demand{ID: i, Src: s, Dst: d, RateGbps: rate})
	}
	theta := []float64{1, 2.5, 10}[rng.Intn(3)]
	return ls, ds, theta
}

// sameResult asserts two results are bit-identical: same throughput, same
// demand IDs, and per demand the same ordered path/rate lists.
func sameResult(t *testing.T, seed int64, want, got *Result) {
	t.Helper()
	if want.Throughput != got.Throughput {
		t.Fatalf("seed %d: throughput %v != reference %v", seed, got.Throughput, want.Throughput)
	}
	if len(want.Alloc) != len(got.Alloc) {
		t.Fatalf("seed %d: alloc map sizes differ: %d != %d", seed, len(got.Alloc), len(want.Alloc))
	}
	for id, wprs := range want.Alloc {
		gprs, ok := got.Alloc[id]
		if !ok || len(gprs) != len(wprs) {
			t.Fatalf("seed %d: demand %d: %d paths, reference %d", seed, id, len(gprs), len(wprs))
		}
		for k := range wprs {
			if wprs[k].Rate != gprs[k].Rate {
				t.Fatalf("seed %d: demand %d path %d: rate %v != reference %v", seed, id, k, gprs[k].Rate, wprs[k].Rate)
			}
			if len(wprs[k].Path) != len(gprs[k].Path) {
				t.Fatalf("seed %d: demand %d path %d: length %d != reference %d", seed, id, k, len(gprs[k].Path), len(wprs[k].Path))
			}
			for x := range wprs[k].Path {
				if wprs[k].Path[x] != gprs[k].Path[x] {
					t.Fatalf("seed %d: demand %d path %d: node %d: %d != reference %d",
						seed, id, k, x, gprs[k].Path[x], wprs[k].Path[x])
				}
			}
		}
	}
}

// TestAllocatorMatchesReferenceGreedy is the flat-vs-map differential: on
// randomized topologies and demand sets the Allocator must reproduce the
// reference implementation exactly — throughput, path lists, and rates.
// One Allocator is reused across all seeds so buffer-reuse bugs (stale
// residuals, unreset tiers) cannot hide.
func TestAllocatorMatchesReferenceGreedy(t *testing.T) {
	al := NewAllocator()
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ls, ds, theta := randomCase(rng)
		sameResult(t, seed, greedyReference(ls, theta, ds), al.Greedy(ls, theta, ds))
	}
}

// TestAllocatorMatchesReferenceSequential is the same differential for the
// no-tier ablation variant.
func TestAllocatorMatchesReferenceSequential(t *testing.T) {
	al := NewAllocator()
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ls, ds, theta := randomCase(rng)
		sameResult(t, seed, greedySequentialReference(ls, theta, ds), al.GreedySequential(ls, theta, ds))
	}
}

// TestAllocatorThroughputMatchesGreedy pins Throughput to the Greedy sum so
// the record-free fast path cannot drift from the recording path.
func TestAllocatorThroughputMatchesGreedy(t *testing.T) {
	al := NewAllocator()
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ls, ds, theta := randomCase(rng)
		want := al.Greedy(ls, theta, ds).Throughput
		if got := al.Throughput(ls, theta, ds); got != want {
			t.Fatalf("seed %d: Throughput %v != Greedy throughput %v", seed, got, want)
		}
	}
}

// TestAllocatorThroughputZeroAlloc is the steady-state zero-allocation
// claim: once the Allocator's buffers have grown to the topology size, the
// energy evaluation allocates nothing.
func TestAllocatorThroughputZeroAlloc(t *testing.T) {
	net := topology.ISP(25, 8, 1)
	ls := topology.InitialTopology(net)
	rng := rand.New(rand.NewSource(3))
	var ds []Demand
	for i := 0; i < 80; i++ {
		s, d := rng.Intn(25), rng.Intn(25)
		if s == d {
			continue
		}
		ds = append(ds, Demand{ID: i, Src: s, Dst: d, RateGbps: rng.Float64() * 30})
	}
	al := NewAllocator()
	al.Throughput(ls, net.ThetaGbps, ds) // warm the buffers
	if avg := testing.AllocsPerRun(20, func() {
		al.Throughput(ls, net.ThetaGbps, ds)
	}); avg != 0 {
		t.Errorf("Allocator.Throughput allocates %v objects/op in steady state, want 0", avg)
	}
}

// TestAllocatorReuseAcrossTopologySizes shrinks and grows the topology
// between calls on one Allocator: leftover state from a larger load must
// never leak into a smaller one.
func TestAllocatorReuseAcrossTopologySizes(t *testing.T) {
	al := NewAllocator()
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(9000 + seed))
		ls, ds, theta := randomCase(rng)
		sameResult(t, seed, greedyReference(ls, theta, ds), al.Greedy(ls, theta, ds))
		// Tiny follow-up case on the same allocator.
		tiny := topology.NewLinkSet(2)
		tiny.Add(0, 1, 1)
		d2 := []Demand{{ID: 0, Src: 0, Dst: 1, RateGbps: 25}}
		sameResult(t, seed, greedyReference(tiny, 10, d2), al.Greedy(tiny, 10, d2))
	}
}

// BenchmarkGreedyAlloc measures the steady-state energy evaluation on a
// reused Allocator (the configuration the annealing workers run).
func BenchmarkGreedyAlloc(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	net := topology.ISP(40, 10, 1)
	ls := topology.InitialTopology(net)
	var ds []Demand
	for i := 0; i < 200; i++ {
		s, d := rng.Intn(40), rng.Intn(40)
		if s == d {
			continue
		}
		ds = append(ds, Demand{ID: i, Src: s, Dst: d, RateGbps: rng.Float64() * 30})
	}
	al := NewAllocator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al.Throughput(ls, 10, ds)
	}
}
