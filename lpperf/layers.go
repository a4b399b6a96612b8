package main

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"lazyp/internal/checksum"
	"lazyp/internal/kvserve"
	"lazyp/internal/lp"
	"lazyp/internal/lpstore"
	"lazyp/internal/memsim"
	"lazyp/internal/obs"
	"lazyp/internal/pmem"
	"lazyp/internal/workloads"
)

// traceCap sizes every tracer ring of a traced run. Each segment's
// rings are drained when it ends; a segment of the traced runs records
// well under this many events.
const traceCap = 1 << 18

// perLayer lists every per-layer metric with its unit. A traced run
// prints all of them; a metric whose layer the workload does not
// exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"kvserve.queue_us", "us"},
	{"kvserve.fill_us", "us"},
	{"kvserve.flush_us", "us"},
	{"kvserve.repl_us", "us"},
	{"kvserve.mailbox_high_water", "count"},
	{"kvserve.puts_per_batch", "count"},
	{"kvserve.leaked_lines_per_put", "count"},
	{"kvserve.frames_per_write", "count"},
	{"kvserve.journal_slots_per_put", "count"},
	{"kvserve.journal_budget_s", "s"},
	{"kvserve.seqlock_retries_per_kget", "count"},
	{"kvserve.ping_rtt_us", "us"},
	{"kvserve.open_fill_us", "us"},
	{"kvserve.open_journal_slots_per_put", "count"},
	{"kvserve.open_journal_budget_s", "s"},
	{"kvserve.base_goodput_ops_s", "ops/s"},
	{"kvserve.recover_replayed_puts", "count"},
	{"lpstore.put_ns.lp", "ns"},
	{"lpstore.put_ns.base", "ns"},
	{"lpstore.seal_ns", "ns"},
	{"lpstore.seqget_ns", "ns"},
	{"checksum.add_ns", "ns"},
	{"cluster.repl_frame_puts", "count"},
	{"cluster.repl_lag_us", "us"},
	{"cluster.router_bytes_per_op", "B"},
	{"cluster.single_goodput_ops_s", "ops/s"},
	{"cluster.repl_degraded", "count"},
	{"obs.stage_self_us.client", "us"},
	{"obs.stage_self_us.router_route", "us"},
	{"obs.stage_self_us.queue", "us"},
	{"obs.stage_self_us.fill", "us"},
	{"obs.stage_self_us.flush", "us"},
	{"obs.stage_self_us.repl", "us"},
	{"obs.stage_self_us.reply", "us"},
	{"obs.residual_us", "us"},
	{"obs.put_mean_us", "us"},
	{"obs.traced_puts", "count"},
	{"obs.trace_overhead_pct", "%"},
	{"client.put_p99_us", "us"},
	{"client.get_p50_us", "us"},
	{"client.get_p99_us", "us"},
	{"client.open_put_p50_us", "us"},
	{"client.open_put_p99_us", "us"},
	{"client.lag_p99_us", "us"},
	{"sim.minstr_s", "Minstr/s"},
	{"sim.host_ns_per_instr", "ns"},
	{"sim.host_ms.sim", "ms"},
	{"sim.host_ms.memsim", "ms"},
	{"sim.host_ms.workloads", "ms"},
	{"sim.host_ms.runtime", "ms"},
	{"memsim.l1_hits", "count"},
	{"memsim.l2_misses", "count"},
	{"sim.cycles.base", "cycles"},
	{"sim.cycles.lp", "cycles"},
	{"sim.cycles.ep", "cycles"},
	{"sim.cycles.wal", "cycles"},
	{"memsim.nvmm_writes.lp", "lines"},
	{"memsim.nvmm_writes.ep", "lines"},
	{"sim.fence_cycles.ep", "cycles"},
	{"sim.recover_cycles.lp", "cycles"},
}

// zeroLayers sets every per-layer metric to 0, so a traced run always
// reports the full set.
func zeroLayers(res *result) {
	for _, m := range perLayer {
		res.set(m.name, 0, m.unit)
	}
}

// acc is a running sum and count.
type acc struct {
	sum float64
	n   float64
}

func (a *acc) add(sum, n float64) { a.sum += sum; a.n += n }

func (a *acc) mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / a.n
}

func (a *acc) addHist(h *obs.Histogram) {
	s := h.Snapshot()
	a.add(float64(s.Sum), float64(s.Count))
}

// stages are the self-time stages of a traced put, in order. A stage
// runs from one span boundary to the next one present: client (send →
// router or enqueue), router_route (route → enqueue), queue, fill
// (dequeue → seal), flush (seal → durable), repl (durable → follower
// acks resolved) and reply (last server boundary → client ack). The
// stages of one timeline add up to its client-observed latency.
var stages = []string{"client", "router_route", "queue", "fill", "flush", "repl", "reply"}

// boundaries are the span events that end a stage, in order, with the
// stage each one ends.
var boundaries = []struct {
	ev    obs.EventType
	stage string
}{
	{obs.EvRouterRoute, "client"},
	{obs.EvStageEnq, "router_route"},
	{obs.EvStageDeq, "queue"},
	{obs.EvStageSeal, "fill"},
	{obs.EvStageFlush, "flush"},
	{obs.EvStageReplAck, "repl"},
	{obs.EvClientAck, "reply"},
}

// layerAgg collects per-layer numbers over a traced run's segments:
// server registries and stats, and the span timelines of sampled puts.
type layerAgg struct {
	client *obs.Tracer
	drains map[string][]obs.Event

	stage      map[string]*acc // registry stage histograms (ns)
	frames     acc
	replBatch  acc
	replLag    acc
	mbHigh     int64
	stats      kvserve.Stats
	seqRetries uint64
	degraded   uint64
	routerB    uint64
	ops        uint64
	okPuts     uint64
	dropped    uint64

	self      map[string]float64 // summed self time per stage (ns)
	timelines int
	putLat    latStats
}

func newLayerAgg() *layerAgg {
	return &layerAgg{drains: map[string][]obs.Event{}, stage: map[string]*acc{}, self: map[string]float64{}}
}

// addServer reads a server's registry, stats and trace ring. Call it
// after the segment's load, before the server is torn down.
func (la *layerAgg) addServer(name string, srv *kvserve.Server, shards int) {
	reg := srv.Metrics()
	root := reg.Scope()
	for _, st := range []string{"queue", "fill", "flush", "repl"} {
		if la.stage[st] == nil {
			la.stage[st] = &acc{}
		}
		la.stage[st].addHist(root.With("stage", st).HistogramScaled("kvserve_stage_seconds", 1e-9))
	}
	la.frames.addHist(root.Histogram("kvserve_writev_frames_per_syscall"))
	la.replBatch.addHist(root.Histogram("cluster_repl_batch_puts"))
	la.replLag.addHist(root.HistogramScaled("cluster_repl_lag_seconds", 1e-9))
	la.seqRetries += root.Counter("kvserve_seqlock_retries_total").Load()
	la.degraded += root.Counter("cluster_repl_degraded_total").Load()
	for i := 0; i < shards; i++ {
		if v := reg.Scope("shard", strconv.Itoa(i)).Gauge("kvserve_mailbox_high_water").Load(); v > la.mbHigh {
			la.mbHigh = v
		}
	}
	s := srv.Stats()
	la.stats.Gets += s.Gets
	la.stats.Puts += s.Puts
	la.stats.Batches += s.Batches
	la.stats.Pads += s.Pads
	la.stats.LeakedLines += s.LeakedLines
	la.dropped += srv.Tracer().Dropped()
	la.drains[name] = srv.Tracer().Drain(traceCap)
}

// endSegment folds the segment's client tally and assembles its
// timelines from every drain collected since the last call.
func (la *layerAgg) endSegment(t *tally) {
	la.ops += t.attempted
	la.okPuts += t.okPuts
	la.putLat.merge(t.lat[opPut])
	if la.client != nil {
		la.dropped += la.client.Dropped()
		la.drains["client"] = la.client.Drain(traceCap)
		for _, tl := range obs.AssembleTimelines(la.drains) {
			la.addTimeline(&tl)
		}
	}
	la.drains = map[string][]obs.Event{}
}

// addTimeline adds one put's stage self times when the timeline holds
// the client's send and ack and the primary's enqueue, dequeue, seal
// and flush. Server stages are read from the primary only (the node of
// the first enqueue): a follower's copy of the same put carries the
// same trace ID.
func (la *layerAgg) addTimeline(tl *obs.Timeline) {
	send, ok1 := tl.First(obs.EvClientSend)
	ack, ok2 := tl.First(obs.EvClientAck)
	enq, ok3 := tl.First(obs.EvStageEnq)
	if !ok1 || !ok2 || !ok3 {
		return
	}
	ts := map[obs.EventType]int64{}
	for _, e := range tl.Events {
		if _, seen := ts[e.Type]; seen {
			continue
		}
		switch e.Type {
		case obs.EvRouterRoute:
			ts[e.Type] = e.TS
		case obs.EvStageEnq, obs.EvStageDeq, obs.EvStageSeal, obs.EvStageFlush, obs.EvStageReplAck:
			if e.Node == enq.Node {
				ts[e.Type] = e.TS
			}
		}
	}
	for _, need := range []obs.EventType{obs.EvStageDeq, obs.EvStageSeal, obs.EvStageFlush} {
		if _, ok := ts[need]; !ok {
			return
		}
	}
	ts[obs.EvClientAck] = ack.TS
	prev := send.TS
	routed := false
	for _, b := range boundaries {
		t, ok := ts[b.ev]
		if !ok {
			continue
		}
		stage := b.stage
		if b.ev == obs.EvStageEnq && !routed {
			stage = "client"
		}
		routed = routed || b.ev == obs.EvRouterRoute
		la.self[stage] += float64(t - prev)
		prev = t
	}
	la.timelines++
}

// report writes the collected per-layer metrics.
func (la *layerAgg) report(res *result) {
	us := func(ns float64) float64 { return ns / 1e3 }
	res.set("kvserve.queue_us", us(la.stage["queue"].mean()), "us")
	res.set("kvserve.fill_us", us(la.stage["fill"].mean()), "us")
	res.set("kvserve.flush_us", us(la.stage["flush"].mean()), "us")
	res.set("kvserve.repl_us", us(la.stage["repl"].mean()), "us")
	res.set("kvserve.mailbox_high_water", float64(la.mbHigh), "count")
	res.set("kvserve.frames_per_write", la.frames.mean(), "count")
	if la.stats.Batches > 0 {
		res.set("kvserve.puts_per_batch", float64(la.stats.Puts)/float64(la.stats.Batches), "count")
	}
	if la.stats.Puts > 0 {
		res.set("kvserve.leaked_lines_per_put", float64(la.stats.LeakedLines)/float64(la.stats.Puts), "count")
	}
	if la.okPuts > 0 {
		res.set("kvserve.journal_slots_per_put", float64(la.stats.Puts+la.stats.Pads)/float64(la.okPuts), "count")
	}
	if la.stats.Gets > 0 {
		res.set("kvserve.seqlock_retries_per_kget", 1000*float64(la.seqRetries)/float64(la.stats.Gets), "count")
	}
	res.set("cluster.repl_frame_puts", la.replBatch.mean(), "count")
	res.set("cluster.repl_lag_us", us(la.replLag.mean()), "us")
	res.set("cluster.repl_degraded", float64(la.degraded), "count")
	if la.ops > 0 {
		res.set("cluster.router_bytes_per_op", float64(la.routerB)/float64(la.ops), "B")
	}
	sum := 0.0
	for _, st := range stages {
		v := 0.0
		if la.timelines > 0 {
			v = la.self[st] / float64(la.timelines)
		}
		sum += v
		res.set("obs.stage_self_us."+st, us(v), "us")
	}
	putMean := la.putLat.meanUs()
	res.set("obs.put_mean_us", putMean, "us")
	res.set("obs.residual_us", putMean-us(sum), "us")
	res.set("obs.traced_puts", float64(la.timelines), "count")
	if la.dropped > 0 {
		fmt.Fprintf(os.Stderr, "lpperf: %d trace events were overwritten before being drained\n", la.dropped)
	}
}

// storeSink keeps the timed reads and checksum adds live.
var storeSink uint64

// measureStoreLayers times lpstore and checksum directly: one
// goroutine over a memsim.Memory through pmem.Native, at the kv
// servers' shard geometry, with keys drawn from the seed. Each figure
// is the median of five passes.
func measureStoreLayers(res *result, seed uint64) {
	const (
		capacity = 1 << 14
		nKeys    = 4096
		nPuts    = 1 << 16
		batchK   = 32
		passes   = 5
	)
	keys := make([]uint64, nPuts)
	for i := range keys {
		keys[i] = workloads.KVKey(0, int(workloads.SplitMix64(seed+uint64(i))%nKeys))
	}
	timeNs := func(n int, f func()) float64 {
		t0 := time.Now()
		f()
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	var putLP, putBase, seal, seqget, add []float64
	for pass := 0; pass < passes; pass++ {
		m := memsim.NewMemory(16 << 20)
		c := &pmem.Native{Mem: m}
		sh := lpstore.NewShardLP(m, "lp", 0, capacity, nPuts, batchK, checksum.Modular)
		w := sh.NewLPWriter()
		putLP = append(putLP, timeNs(nPuts, func() {
			for i, k := range keys {
				w.Put(c, k, uint64(i))
			}
		}))
		// Seal closes a partial batch: 8 puts, then the timed seal. A
		// partial batch still takes a whole ack slot, so this shard's
		// journal is sized in batches, not puts.
		const sealRounds = 2048
		shs := lpstore.NewShardLP(m, "seal", 1, capacity, sealRounds*batchK, batchK, checksum.Modular)
		ws := shs.NewLPWriter()
		var sealNs time.Duration
		for i := 0; i < sealRounds; i++ {
			for j := 0; j < 8; j++ {
				ws.Put(c, keys[(8*i+j)%nPuts], uint64(j))
			}
			t0 := time.Now()
			ws.Seal(c)
			sealNs += time.Since(t0)
		}
		seal = append(seal, float64(sealNs.Nanoseconds())/sealRounds)

		mb := memsim.NewMemory(4 << 20)
		cb := &pmem.Native{Mem: mb}
		shb := lpstore.NewShard(mb, "base", 0, capacity)
		wb := shb.NewWriter(lpstore.ModeBase, lp.Base{}.Thread(0))
		putBase = append(putBase, timeNs(nPuts, func() {
			for i, k := range keys {
				wb.Put(cb, k, uint64(i))
			}
		}))
		shb.Tab.EnableSeqlock()
		var sink uint64
		seqget = append(seqget, timeNs(nPuts, func() {
			for _, k := range keys {
				v, _, _ := shb.Tab.SeqGet(mb, k)
				sink += v
			}
		}))
		st := checksum.New(checksum.Modular)
		add = append(add, timeNs(4*nPuts, func() {
			for i := 0; i < 4*nPuts; i++ {
				st.Add(keys[i%nPuts] + sink)
			}
		}))
		storeSink = st.Sum()
	}
	res.set("lpstore.put_ns.lp", median(putLP), "ns")
	res.set("lpstore.put_ns.base", median(putBase), "ns")
	res.set("lpstore.seal_ns", median(seal), "ns")
	res.set("lpstore.seqget_ns", median(seqget), "ns")
	res.set("checksum.add_ns", median(add), "ns")
}
