package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"owan/internal/controlplane"
	"owan/internal/core"
	"owan/internal/experiments"
	"owan/internal/optical"
	"owan/internal/store"
	"owan/internal/topology"
	"owan/internal/transfer"
)

// ctrlSpec is an in-process controller on loopback TCP. Each client submits
// on a fixed schedule over its own connection; RPCs are serialized per
// connection, so every connection is a paced closed loop and latency is
// timed from each submit's due time. The benchmark ticks the controller on
// a wall-clock period, so admission contends with planning.
type ctrlSpec struct {
	sites, ports int
	iterations   int
	batch        int
	clients      int
	rate         float64 // submits per second per client
	tick         time.Duration
}

// ctrlISP40 offers ISP40 FullScale transfers at about half the goodput the
// controller sustains, so the active set levels off and the figures do not
// depend on how long a run lasts.
var ctrlISP40 = &ctrlSpec{sites: 40, ports: 10, iterations: 700, batch: 2, clients: 2, rate: 50, tick: 250 * time.Millisecond}

type ctrlState struct {
	net               *topology.Network
	reqs              []transfer.Request
	st                *store.Store
	srv               *controlplane.Controller
	lis               net.Listener
	served            chan struct{}
	newState, coreNew time.Duration
	setup             time.Duration
}

func (c *ctrlSpec) prepare(o options) (*ctrlState, error) {
	cs := &ctrlState{net: topology.ISP(c.sites, c.ports, 1), st: store.New(), served: make(chan struct{})}
	reqs, err := mixture(o.seed, func(sub int64, load float64) ([]transfer.Request, error) {
		return experiments.Workload(experiments.ISP, cs.net, experiments.FullScale(), load, 0, sub)
	})
	if err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("seed %d generated no transfers", o.seed)
	}
	cs.reqs = reqs
	if o.trace {
		t := time.Now()
		optical.NewState(cs.net)
		cs.newState = time.Since(t)
	}
	cfg := core.DefaultConfig(cs.net)
	cfg.Seed = o.seed
	cfg.Policy = transfer.SJF
	cfg.MaxIterations = c.iterations
	cfg.BatchSize = c.batch
	cfg.Workers = runtime.GOMAXPROCS(0)
	t := time.Now()
	srv, err := controlplane.NewServer(context.Background(), cs.st,
		controlplane.WithCoreConfig(cfg), controlplane.WithSlotSeconds(experiments.SlotSeconds))
	if err != nil {
		return nil, err
	}
	cs.coreNew = time.Since(t)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	cs.srv, cs.lis = srv, lis
	go func() {
		srv.Serve(lis)
		close(cs.served)
	}()
	cs.setup = time.Since(processStart)
	return cs, nil
}

// close stops the controller. The listener is closed here too: Serve may
// not have registered it with the controller yet.
func (cs *ctrlState) close() {
	cs.lis.Close()
	cs.srv.Close()
	<-cs.served
}

func (c *ctrlSpec) setupOnly(o options) (time.Duration, error) {
	cs, err := c.prepare(o)
	if err != nil {
		return 0, err
	}
	cs.close()
	return cs.setup, nil
}

// submitRec is one submission as its client saw it.
type submitRec struct {
	client         int
	due, sent, ack time.Time
	id             int
	err            error
}

// tickRec is one Controller.Tick as the benchmark saw it.
type tickRec struct {
	start, end time.Time
	stats      core.SearchStats
	plan       controlplane.UpdatePlanStats
}

// rateLog collects each client's rate-push arrival times.
type rateLog struct {
	mu    sync.Mutex
	times [][]time.Time
}

func (l *rateLog) note(client int) {
	now := time.Now()
	l.mu.Lock()
	l.times[client] = append(l.times[client], now)
	l.mu.Unlock()
}

func (c *ctrlSpec) run(o options) (*outcome, error) {
	cs, err := c.prepare(o)
	if err != nil {
		return nil, err
	}
	defer cs.close()
	out := newOutcome()
	out.setup = cs.setup

	rates := &rateLog{times: make([][]time.Time, c.clients)}
	clients := make([]*controlplane.Client, c.clients)
	for i := range clients {
		i := i
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cl, err := controlplane.Dial(ctx, cs.lis.Addr().String(), controlplane.WithSite(i),
			controlplane.WithJitterSeed(o.seed+int64(i)),
			controlplane.WithOnRates(func([]controlplane.WireRate) { rates.note(i) }))
		cancel()
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		clients[i] = cl
	}
	d := c.drive(o, cs, clients)
	if len(d.ticks) < 2 {
		return nil, fmt.Errorf("%v s fit only %d ticks", o.seconds, len(d.ticks))
	}
	a := c.audit(out, cs, clients, d.subs)

	var tickMS, lat []float64
	for _, t := range d.ticks[1:] {
		tickMS = append(tickMS, ms(t.end.Sub(t.start)))
	}
	for _, s := range d.subs {
		if s.err == nil {
			lat = append(lat, ms(s.ack.Sub(s.due)))
		}
	}
	out.attempted = len(d.subs)
	out.failed = len(d.subs) - len(lat) + a.lost
	nt := float64(len(d.ticks))
	m := out.metrics
	if o.trace {
		c.reportTraced(m, cs, d, rates, a)
		m.set("controlplane.submit_fail_frac", ratio(float64(out.failed), float64(out.attempted)), "frac")
		return out, nil
	}
	m.set("slot_p50_ms", quantile(tickMS, 0.5), "ms")
	m.set("slot_p90_ms", quantile(tickMS, 0.9), "ms")
	m.set("cpu_ms_per_slot", ms(d.cpu)/nt, "ms")
	m.set("goodput_gbps", ratio(a.delivered, nt*experiments.SlotSeconds), "Gbps")
	m.set("mean_ct_s", a.meanCT, "s")
	m.set("completed_frac", a.completedFrac, "frac")
	m.set("submit_p50_ms", quantile(lat, 0.5), "ms")
	m.set("submit_p99_ms", quantile(lat, 0.99), "ms")
	m.set("submit_ok_frac", ratio(float64(out.attempted-out.failed), float64(out.attempted)), "frac")
	return out, nil
}

// ctrlRun is what the benchmark saw while driving the controller.
type ctrlRun struct {
	subs       []submitRec
	ticks      []tickRec
	start, end time.Time
	cpu        time.Duration
	g0, g1     goStats
	seq0, seq1 uint64
	// heapPeak and probe are sampled only in the traced run.
	heapPeak uint64
	probe    time.Duration
}

// drive runs the submit schedules and the tick loop for o.seconds.
func (c *ctrlSpec) drive(o options, cs *ctrlState, clients []*controlplane.Client) *ctrlRun {
	d := &ctrlRun{}
	gs := newGoSampler()
	interval := time.Duration(float64(time.Second) / c.rate)
	d.start = time.Now().Add(20 * time.Millisecond)
	deadline := d.start.Add(time.Duration(o.seconds * float64(time.Second)))
	d.seq0 = cs.st.Seq()
	d.g0 = gs.read()
	cpu0 := cpuTime()

	subs := make([][]submitRec, len(clients))
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *controlplane.Client) {
			defer wg.Done()
			for k := 0; ; k++ {
				// A quarter interval off the tick grid (ticks fall on
				// multiples of half the 20 ms interval), so no submit is
				// due at the instant a tick starts.
				due := d.start.Add(time.Duration(k)*interval + interval/4)
				if !due.Before(deadline) {
					return
				}
				time.Sleep(time.Until(due))
				r := cs.reqs[(k*len(clients)+i)%len(cs.reqs)]
				sent := time.Now()
				id, err := cl.Submit(context.Background(), controlplane.WireRequest{Src: r.Src, Dst: r.Dst, SizeGbits: r.SizeGbits})
				subs[i] = append(subs[i], submitRec{client: i, due: due, sent: sent, ack: time.Now(), id: id, err: err})
			}
		}(i, cl)
	}
	for j := 1; ; j++ {
		due := d.start.Add(time.Duration(j) * c.tick)
		if !due.Before(deadline) {
			break
		}
		time.Sleep(time.Until(due))
		t0 := time.Now()
		stats := cs.srv.Tick()
		tr := tickRec{start: t0, end: time.Now(), stats: stats}
		if o.trace {
			p0 := time.Now()
			tr.plan = cs.srv.LastUpdatePlan()
			d.heapPeak = max(d.heapPeak, gs.read().heap)
			d.probe += time.Since(p0)
		}
		d.ticks = append(d.ticks, tr)
	}
	wg.Wait()
	d.end = time.Now()
	d.cpu = cpuTime() - cpu0
	d.g1 = gs.read()
	d.seq1 = cs.st.Seq()
	for _, s := range subs {
		d.subs = append(d.subs, s...)
	}
	return d
}

// reportTraced sets the per-layer metrics of a traced run.
func (c *ctrlSpec) reportTraced(m metricSet, cs *ctrlState, d *ctrlRun, rates *rateLog, a ctrlAudit) {
	var search searchAgg
	var plans updateAgg
	var other, inTick, idle, late, lag []float64
	rates.mu.Lock()
	defer rates.mu.Unlock()
	for j, t := range d.ticks {
		search.add(t.stats)
		other = append(other, ms(t.end.Sub(t.start)-t.stats.Elapsed))
		plans.add(t.plan.Rounds, t.plan.Ops, t.plan.Err != "")
		// Rate lag: from the tick's start to the first push each client
		// received before the next tick started.
		next := d.end
		if j+1 < len(d.ticks) {
			next = d.ticks[j+1].start
		}
		for _, ts := range rates.times {
			for _, at := range ts {
				if !at.Before(t.start) && at.Before(next) {
					lag = append(lag, ms(at.Sub(t.start)))
					break
				}
			}
		}
	}
	for _, s := range d.subs {
		late = append(late, ms(s.sent.Sub(s.due)))
		if s.err != nil {
			continue
		}
		overlaps := false
		for _, t := range d.ticks {
			if s.sent.Before(t.end) && t.start.Before(s.ack) {
				overlaps = true
				break
			}
		}
		if overlaps {
			inTick = append(inTick, ms(s.ack.Sub(s.due)))
		} else {
			idle = append(idle, ms(s.ack.Sub(s.due)))
		}
	}
	nt := float64(len(d.ticks))
	counters := cs.srv.Counters()
	search.report(m)
	plans.report(m)
	reportGo(m, d.g0, d.g1, nt, 0, 0, d.heapPeak)
	m.set("optical.newstate_s", cs.newState.Seconds(), "s")
	m.set("core.new_s", cs.coreNew.Seconds(), "s")
	m.set("controlplane.tick_other_ms_p50", quantile(other, 0.5), "ms")
	m.set("controlplane.submit_p99_in_tick_ms", quantile(inTick, 0.99), "ms")
	m.set("controlplane.submit_p99_idle_ms", quantile(idle, 0.99), "ms")
	m.set("controlplane.submit_in_tick_share", ratio(float64(len(inTick)), float64(len(inTick)+len(idle))), "frac")
	m.set("controlplane.admit_batch_mean", ratio(float64(counters.Admitted), float64(counters.AdmitBatches)), "count")
	m.set("controlplane.overloads", float64(counters.Overloads), "count")
	m.set("controlplane.push_failures", float64(counters.PushFailures), "count")
	m.set("controlplane.rates_lag_ms_p50", quantile(lag, 0.5), "ms")
	m.set("controlplane.resync_ms", a.resyncMS, "ms")
	m.set("store.entries_per_tick", float64(d.seq1-d.seq0)/nt, "count")
	m.set("store.snapshot_prefix_ms", a.snapshotMS, "ms")
	m.set("bench.gen_late_ms", mean(late), "ms")
	m.set("trace.overhead_frac", ratio(float64(d.probe), float64(d.end.Sub(d.start))), "frac")
}

// ctrlAudit is what the store says happened to the acknowledged submits.
type ctrlAudit struct {
	lost                  int
	delivered             float64
	meanCT, completedFrac float64
	snapshotMS, resyncMS  float64
}

// audit checks that every acknowledged submit appears exactly once in the
// store under its client's site, that each client's resync snapshot agrees
// with its acks, and rebuilds the transfers' progress from the store.
func (c *ctrlSpec) audit(out *outcome, cs *ctrlState, clients []*controlplane.Client, subs []submitRec) ctrlAudit {
	var a ctrlAudit
	owner := map[int]int{} // acked id -> client
	for _, s := range subs {
		if s.err != nil {
			continue
		}
		_, dup := owner[s.id]
		out.check(!dup, "transfer id %d acknowledged twice", s.id)
		owner[s.id] = s.client
	}

	t := time.Now()
	recs := cs.st.SnapshotPrefix("transfer/")
	a.snapshotMS = ms(time.Since(t))
	byID := map[int]controlplane.TransferRecord{}
	for k, v := range recs {
		r, err := controlplane.DecodeTransferRecord(v)
		if err != nil {
			out.check(false, "store record %s: %v", k, err)
			continue
		}
		_, dup := byID[r.ID]
		out.check(!dup, "transfer %d stored twice", r.ID)
		byID[r.ID] = r
		cl, acked := owner[r.ID]
		out.check(acked, "store holds transfer %d that no client had acknowledged", r.ID)
		out.check(!acked || r.Site == cl, "transfer %d stored under site %d, submitted by site %d", r.ID, r.Site, cl)
		out.check(r.RemainingGbits >= 0 && r.RemainingGbits <= r.SizeGbits,
			"transfer %d has %v of %v Gbit remaining", r.ID, r.RemainingGbits, r.SizeGbits)
		a.delivered += r.SizeGbits - r.RemainingGbits
	}
	for id := range owner {
		if _, ok := byID[id]; !ok {
			a.lost++
		}
	}
	out.check(a.lost == 0, "%d acknowledged submits are missing from the store", a.lost)

	var resync []float64
	for i, cl := range clients {
		t := time.Now()
		snap, err := cl.Resync(context.Background())
		resync = append(resync, ms(time.Since(t)))
		if err != nil {
			out.check(false, "client %d resync: %v", i, err)
			continue
		}
		pending := map[int]bool{}
		for _, p := range snap.Pending {
			pending[p.ID] = true
			cl, acked := owner[p.ID]
			out.check(acked && cl == i && byID[p.ID].SizeGbits == p.SizeGbits,
				"client %d resync lists transfer %d it was not acknowledged", i, p.ID)
		}
		if snap.Truncated {
			continue
		}
		for id, cl := range owner {
			if r, ok := byID[id]; ok && cl == i && !r.Done {
				out.check(pending[id], "client %d resync misses its pending transfer %d", i, id)
			}
		}
	}
	a.resyncMS = mean(resync)
	a.meanCT, a.completedFrac = completionFromLog(cs.st)
	return a
}

// completionFromLog replays the store's log to find, for every transfer,
// the slot it was admitted in and the slot it completed in. Each Tick writes
// the transfers it advanced together with "meta/slot" = its slot + 1 in one
// batch, so a record's slot is the next meta/slot value in the log minus
// one. Completion times are whole slots: the store keeps no finish time.
func completionFromLog(st *store.Store) (meanCT, completedFrac float64) {
	entries := st.EntriesSince(0)
	// nextSlot[i] is the slot value the first meta/slot entry at or after
	// entry i announces, or -1 when no Tick followed.
	nextSlot := make([]int, len(entries))
	ns := -1
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].Key == "meta/slot" {
			fmt.Sscan(string(entries[i].Value), &ns)
		}
		nextSlot[i] = ns
	}
	arrival := map[int]int{}
	finished := map[int]int{}
	for i, e := range entries {
		if len(e.Key) < 9 || e.Key[:9] != "transfer/" || nextSlot[i] < 0 {
			continue
		}
		r, err := controlplane.DecodeTransferRecord(e.Value)
		if err != nil {
			continue
		}
		slot := nextSlot[i] - 1
		if _, ok := arrival[r.ID]; !ok {
			arrival[r.ID] = slot
		}
		if _, ok := finished[r.ID]; r.Done && !ok {
			finished[r.ID] = slot
		}
	}
	ct := 0.0
	for id, f := range finished {
		ct += float64(f-arrival[id]+1) * experiments.SlotSeconds
	}
	return ratio(ct, float64(len(finished))), ratio(float64(len(finished)), float64(len(arrival)))
}
