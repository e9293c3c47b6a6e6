package core

import (
	"testing"

	"owan/internal/topology"
	"owan/internal/transfer"
)

// memoFixture returns an evaluator begun on the search fixture's demands and
// a batch of distinct candidates drawn from the initial topology.
func memoFixture(t *testing.T) (*Owan, *evaluator, []candidate) {
	t.Helper()
	net, ts := searchFixture()
	o := New(Config{Net: net, Policy: transfer.SJF, Seed: 3, MaxChurn: -1})
	ev := newEvaluator(o)
	ev.begin(o.demands(ts, 0, 300))
	s := topology.InitialTopology(net)
	ev.energyOf(s)
	var cands []candidate
	seen := map[string]bool{}
	for len(cands) < 6 {
		batch, ok := o.propose(o.rng, s, &chain{s: s}, nil, 1)
		if !ok {
			t.Fatal("fixture topology has no neighbor")
		}
		if k := batch[0].state().Key(); !seen[k] {
			seen[k] = true
			cands = append(cands, batch[0])
		}
	}
	return o, ev, cands
}

// TestEnergyCacheKeyBufferReuse: the evaluator rewrites its per-candidate key
// buffers every batch, so the memo must own copies of its keys. After a
// different batch has overwritten the buffers, the first batch must still be
// served entirely from the memo with the energies it computed.
func TestEnergyCacheKeyBufferReuse(t *testing.T) {
	o, ev, cands := memoFixture(t)
	first := append([]float64(nil), ev.energies(cands, nil)...)
	var other []candidate
	for len(other) < len(cands) {
		s := cands[len(other)].state()
		batch, _ := o.propose(o.rng, s, &chain{s: s}, nil, 1)
		other = append(other, batch...)
	}
	ev.energies(other, nil)
	hits := ev.hits
	again := ev.energies(cands, nil)
	if got := ev.hits - hits; got != len(cands) {
		t.Fatalf("%d of %d repeated candidates hit the memo", got, len(cands))
	}
	for i := range cands {
		if again[i] != first[i] {
			t.Fatalf("candidate %d: memo returned %v, first evaluation %v", i, again[i], first[i])
		}
	}
}

// TestEnergyCacheResetKeepsBuffers: energies depend on the slot's demands, so
// begin must drop every memo entry, while the evaluator keeps its key and
// enumeration buffers for the next search.
func TestEnergyCacheResetKeepsBuffers(t *testing.T) {
	o, ev, cands := memoFixture(t)
	ev.energies(cands, nil)
	if len(ev.memo) == 0 {
		t.Fatal("nothing memoized")
	}
	keyCap := cap(ev.keys[0])
	other := mkTransfers([3]int{0, 3, 900}, [3]int{2, 5, 4000})
	demands := o.demands(other, 0, 300)
	ev.begin(demands)
	if len(ev.memo) != 0 {
		t.Fatalf("%d memo entries survived begin", len(ev.memo))
	}
	hits := ev.hits
	got := ev.energies(cands, nil)
	if ev.hits != hits {
		t.Fatal("a candidate hit the memo of the previous search")
	}
	fresh := New(o.cfg)
	for i := range cands {
		if want := fresh.Energy(cands[i].state(), demands); got[i] != want {
			t.Fatalf("candidate %d: energy %v under the new demands, fresh evaluation %v", i, got[i], want)
		}
	}
	if cap(ev.keys[0]) != keyCap {
		t.Fatalf("key buffer reallocated across begin: cap %d, was %d", cap(ev.keys[0]), keyCap)
	}
}

// TestEnergyCacheSteadyStateAllocs: a batch answered entirely by the memo —
// merge, key and lookup for every candidate — allocates nothing.
func TestEnergyCacheSteadyStateAllocs(t *testing.T) {
	_, ev, cands := memoFixture(t)
	out := ev.energies(cands, nil)
	if avg := testing.AllocsPerRun(50, func() {
		out = ev.energies(cands, out)
	}); avg != 0 {
		t.Fatalf("memo-hit batch allocates %.1f objects, want 0", avg)
	}
}
