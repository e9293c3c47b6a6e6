package alloc

import (
	"math/rand"
	"testing"

	"owan/internal/topology"
)

// randomWideCase is randomCase scaled past the one-word boundary: 65–120
// sites, so every load takes the multi-word mask path. Chord probability
// drops with n to keep edge counts (and test runtime) in the same ballpark
// as real ISP topologies rather than dense graphs.
func randomWideCase(rng *rand.Rand) (*topology.LinkSet, []Demand, float64) {
	n := 65 + rng.Intn(56)
	ls := topology.NewLinkSet(n)
	for i := 0; i+1 < n; i++ {
		if rng.Float64() < 0.9 {
			ls.Add(i, i+1, 1+rng.Intn(3))
		}
	}
	chords := 2 * n
	for c := 0; c < chords; c++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		ls.Add(min(i, j), max(i, j), 1+rng.Intn(3))
	}
	var ds []Demand
	for i := 0; i < 5+rng.Intn(20); i++ {
		s, d := rng.Intn(n), rng.Intn(n)
		if s == d {
			continue
		}
		rate := rng.Float64() * 60
		if rng.Float64() < 0.1 {
			rate = 0
		}
		ds = append(ds, Demand{ID: i, Src: s, Dst: d, RateGbps: rate})
	}
	theta := []float64{1, 2.5, 10}[rng.Intn(3)]
	return ls, ds, theta
}

// TestAllocatorWideMatchesReference is the >64-site differential: the
// multi-word mask path must reproduce the map-based reference exactly —
// throughput, path lists, and rates. One Allocator is reused across all
// seeds so stale wide-mask state cannot hide.
func TestAllocatorWideMatchesReference(t *testing.T) {
	al := NewAllocator()
	seeds := int64(300)
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ls, ds, theta := randomWideCase(rng)
		if !al.wide {
			// First load hasn't happened yet on seed 0; check after.
			_ = al.Greedy(ls, theta, ds)
			if !al.wide {
				t.Fatalf("seed %d: n=%d did not take the multi-word path", seed, ls.N)
			}
		}
		sameResult(t, seed, greedyReference(ls, theta, ds), al.Greedy(ls, theta, ds))
	}
}

// TestAllocatorWideMatchesScalar cross-checks the multi-word mask path
// against the scalar fallback (SetScalarFallback) on the same inputs — the
// two must agree bit for bit, which is also what the ISP100 benchmark's
// speedup claim rests on.
func TestAllocatorWideMatchesScalar(t *testing.T) {
	mask, scalar := NewAllocator(), NewAllocator()
	scalar.SetScalarFallback(true)
	seeds := int64(300)
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ls, ds, theta := randomWideCase(rng)
		sameResult(t, seed, scalar.Greedy(ls, theta, ds), mask.Greedy(ls, theta, ds))
		if scalar.useMask {
			t.Fatal("scalar fallback allocator took a mask path")
		}
	}
}

// TestAllocatorWideZeroAlloc: the multi-word path must stay allocation-free
// in steady state, exactly like the single-word path.
func TestAllocatorWideZeroAlloc(t *testing.T) {
	ls := topology.NewLinkSet(100)
	for i := 0; i+1 < ls.N; i++ {
		ls.Add(i, i+1, 2)
	}
	for i := 0; i+4 < ls.N; i += 3 {
		ls.Add(i, i+4, 1)
	}
	rng := rand.New(rand.NewSource(5))
	var ds []Demand
	for i := 0; i < 120; i++ {
		s, d := rng.Intn(ls.N), rng.Intn(ls.N)
		if s == d {
			continue
		}
		ds = append(ds, Demand{ID: i, Src: s, Dst: d, RateGbps: rng.Float64() * 40})
	}
	al := NewAllocator()
	al.Throughput(ls, 10, ds) // warm buffers
	if !al.wide {
		t.Fatal("expected the multi-word path")
	}
	if avg := testing.AllocsPerRun(20, func() {
		al.Throughput(ls, 10, ds)
	}); avg != 0 {
		t.Fatalf("wide Throughput allocates %.1f per run, want 0", avg)
	}
}
