package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"owan/internal/controlplane"
	"owan/internal/optical"
	"owan/internal/topology"
)

// tiny returns small versions of the three workloads: the same code paths on
// inputs that run in about a second.
func tiny() map[string]workloadDef {
	isp40 := *isp40Paper
	isp40.iterations = 20
	isp200 := *isp200Drift
	isp200.sites, isp200.maxSlots = 30, 3
	ctrl := *ctrlISP40
	ctrl.iterations, ctrl.tick = 20, 50*time.Millisecond
	return map[string]workloadDef{
		"isp40-paper":  {setup: isp40.setupOnly, run: isp40.run, setupSamples: 1},
		"isp200-drift": {setup: isp200.setupOnly, run: isp200.run, setupSamples: 1},
		"ctrl-isp40":   {setup: ctrl.setupOnly, run: ctrl.run, setupSamples: 1},
	}
}

// TestMetricsMatchBenchmarkJSON holds the metric lists the binary prints
// equal to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, want []metricDef, got []struct{ Name, Unit string }) {
		if len(want) != len(got) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the binary %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if want[i].name != got[i].Name || want[i].unit != got[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the binary %s [%s]", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", endToEnd, spec.EndToEnd)
	same("per_layer", perLayer, spec.PerLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, binary %v", names, workloadNames())
	}
}

// TestTinyRuns runs every workload at tiny size, untraced and traced, and
// checks that the run passes its output checks and prints every metric with
// its unit.
func TestTinyRuns(t *testing.T) {
	for name, w := range tiny() {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 3, seconds: 1, trace: trace, setupSamples: 1}
			res, failures, err := measure(o, w)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || len(failures) > 0 {
				t.Errorf("%s trace=%v: output checks failed: %v", name, trace, failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v, want a number in %s", name, trace, d.name, m, d.unit)
				}
			}
			if !trace {
				for _, n := range []string{"setup_s", "slot_p50_ms", "cpu_ms_per_slot", "submit_p50_ms"} {
					if res.Metrics[n].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, n, res.Metrics[n].Value)
					}
				}
			}
		}
	}
}

// simResult plans one tiny ISP40 trajectory to doctor.
func simResult(t *testing.T) *simPass {
	t.Helper()
	s := *isp40Paper
	s.iterations = 20
	st, err := s.prepare(options{seed: 5, seconds: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.pass(st, 0, st.owan, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := newOutcome()
	checkSimResult(out, "clean", p.res, true)
	if len(out.failures) > 0 {
		t.Fatalf("clean result fails its checks: %v", out.failures)
	}
	return p
}

// TestSimChecksFire doctors a real sim result and expects each output check
// to fail the run.
func TestSimChecksFire(t *testing.T) {
	cases := map[string]func(p *simPass){
		"throughput exceeds deliveries": func(p *simPass) { p.res.SlotThroughput[1] += 1 },
		"transfer delivers beyond size": func(p *simPass) {
			p.res.Transfers[0].Remaining = -p.res.Transfers[0].SizeGbits
		},
		"missing update plan":   func(p *simPass) { p.res.Updates = p.res.Updates[1:] },
		"transfer not complete": func(p *simPass) { p.res.MakespanSeconds = math.Inf(1) },
	}
	for name, doctor := range cases {
		p := simResult(t)
		doctor(p)
		out := newOutcome()
		checkSimResult(out, name, p.res, true)
		if len(out.failures) == 0 {
			t.Errorf("%s: no output check fired", name)
		}
	}

	// The traced run compares its trajectory with the reference pass's.
	a, b := simResult(t), simResult(t)
	var sa, sb simSummary
	sa.add(a.res)
	sb.add(b.res)
	if !sa.equal(&sb) {
		t.Fatal("two passes on one seed differ")
	}
	b.res.Churn[len(b.res.Churn)-1]++
	var sc simSummary
	sc.add(b.res)
	if sa.equal(&sc) {
		t.Error("a changed per-slot churn went unnoticed")
	}
}

// TestCtrlAuditFires doctors the store and the client-side acks of a small
// controller run and expects the audit to fail it.
func TestCtrlAuditFires(t *testing.T) {
	c := *ctrlISP40
	c.iterations = 20
	cs, err := c.prepare(options{seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cl, err := controlplane.Dial(ctx, cs.lis.Addr().String(), controlplane.WithSite(0))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var subs []submitRec
	for _, r := range cs.reqs[:5] {
		id, err := cl.Submit(ctx, controlplane.WireRequest{Src: r.Src, Dst: r.Dst, SizeGbits: r.SizeGbits})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, submitRec{id: id})
	}
	cs.srv.Tick()
	clients := []*controlplane.Client{cl}

	out := newOutcome()
	c.audit(out, cs, clients, subs)
	if len(out.failures) > 0 {
		t.Fatalf("clean run fails its audit: %v", out.failures)
	}
	cases := map[string][]submitRec{
		"acked submit missing from the store": append(append([]submitRec(nil), subs...), submitRec{id: 999}),
		"stored transfer nobody acked":        subs[1:],
		"transfer acked under another site":   append([]submitRec{{client: 1, id: subs[0].id}}, subs[1:]...),
	}
	for name, doctored := range cases {
		out := newOutcome()
		c.audit(out, cs, clients, doctored)
		if len(out.failures) == 0 {
			t.Errorf("%s: audit passed", name)
		}
	}
	// A stored transfer that no client acknowledged: an in-process submit.
	extra := cs.reqs[5]
	if _, err := cs.srv.Submit(controlplane.WireRequest{Src: extra.Src, Dst: extra.Dst, SizeGbits: extra.SizeGbits}); err != nil {
		t.Fatal(err)
	}
	out = newOutcome()
	c.audit(out, cs, clients, subs)
	if len(out.failures) == 0 {
		t.Error("an unacknowledged stored transfer passed the audit")
	}
}

// TestDriftedLayoutIsBeyondReach pins the property isp200-drift is chosen
// for on a small network: the drifted start puts circuits beyond optical
// reach where the initial layout puts few.
func TestDriftedLayoutIsBeyondReach(t *testing.T) {
	net := topology.ISP(60, 8, 1)
	opt := optical.NewState(net)
	share := func(ls *topology.LinkSet) float64 {
		beyond, all := 0, 0
		for _, l := range ls.Links() {
			all += l.Count
			if opt.FiberDistKm(l.U, l.V) > net.ReachKm {
				beyond += l.Count
			}
		}
		return float64(beyond) / float64(all)
	}
	before, after := share(topology.InitialTopology(net)), share(driftedLayout(net))
	if after <= before+0.1 {
		t.Errorf("drifted layout has %.3f of circuits beyond reach, initial %.3f", after, before)
	}
}
