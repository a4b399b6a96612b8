package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"lazyp/internal/kvserve"
	"lazyp/internal/loadmodel"
	"lazyp/internal/lpstore"
	"lazyp/internal/obs"
)

// Server geometry of the kv workloads: lpserve's defaults (4 shards ×
// 16384 slots, a 65536-put journal per shard, K = 32, BatchWait 500µs,
// pipeline depth 4) over 4 streams × 2048 preloaded keys. No fsync:
// the crash checks defend against process death, and fsync timings
// would measure the host's disk.
const (
	kvStreams = 4
	kvKeys    = 2048
	// journalLimit ends a server's segment once its fullest shard has
	// used this share of its journal. A shard's journal is a lifetime
	// put budget (pads included), so every segment gets a fresh server
	// and no put is ever refused Full.
	journalLimit = 0.75
)

func kvConfig(p params, path string, mode lpstore.Mode) kvserve.Config {
	return kvserve.Config{
		Path: path, Mode: mode, Seed: p.Seed, Streams: kvStreams, Keys: kvKeys,
		Shards: 4, Capacity: 1 << 14, MaxOps: 1 << 16, BatchK: 32,
		Mailbox: 256, BatchWait: 500 * time.Microsecond, PipelineDepth: 4,
	}
}

// journalUse returns the highest journal occupancy among a server's
// shards, as a share of capacity, read from its metrics registry.
func journalUse(reg *obs.Registry, shards int) float64 {
	worst := 0.0
	for i := 0; i < shards; i++ {
		sc := reg.Scope("shard", strconv.Itoa(i))
		c := sc.Gauge("kvserve_journal_capacity").Load()
		if c <= 0 {
			continue
		}
		if f := float64(sc.Gauge("kvserve_journal_used").Load()) / float64(c); f > worst {
			worst = f
		}
	}
	return worst
}

// segStats is what one server lifetime (a segment) contributes.
type segStats struct {
	setup, recover []float64 // seconds; several builds and recoveries per segment
	win            window    // the load window alone
	budgetS        float64   // projected seconds until the fullest journal fills
}

// Per segment, set-up is timed over extraSetups throwaway builds plus
// the real one, and recovery over recoveries reopenings of copies of
// the aborted image, so both figures are medians of many samples.
const (
	extraSetups = 1
	recoveries  = 2
)

// kvRun accumulates a kv workload's segments.
type kvRun struct {
	p     params
	cfg   func(path string, mode lpstore.Mode) kvserve.Config
	model *keyModel
	win   window
	all   *tally
	segs  []segStats
	// replayed counts puts replayed by restart recovery.
	replayed uint64
	layers   *layerAgg // non-nil while collecting per-layer numbers
	n        int
	// violations found by image checks.
	bad []string
}

func newKVRun(p params) *kvRun {
	return &kvRun{
		p:     p,
		cfg:   func(path string, mode lpstore.Mode) kvserve.Config { return kvConfig(p, path, mode) },
		model: newKeyModel(kvStreams, kvKeys, p.Seed),
		all:   newTally(closedChunk),
	}
}

func (k *kvRun) violate(where string, v []string) {
	for _, s := range v {
		if len(k.bad) < 16 {
			k.bad = append(k.bad, where+": "+s)
		}
	}
}

// loadFn runs load against addr until the journal limit or its budget
// and returns its tally.
type loadFn func(addr string, reg *obs.Registry, shards int, budget time.Duration) (*tally, error)

// startServer builds and starts a server, registering its abort with
// the run's teardown, and returns it with the build time.
func startServer(td *teardown, cfg kvserve.Config) (*kvserve.Server, func(), time.Duration, error) {
	t0 := time.Now()
	srv, err := kvserve.New(cfg)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("kvserve.New: %w", err)
	}
	release := td.add(func() { srv.Abort() })
	if err := srv.Start(); err != nil {
		srv.Abort()
		release()
		return nil, nil, 0, fmt.Errorf("kvserve start: %w", err)
	}
	return srv, release, time.Since(t0), nil
}

// timeSetups builds and discards n servers on a scratch image and
// returns their build times.
func timeSetups(ctx context.Context, cfg kvserve.Config, n int) ([]float64, error) {
	td := teardownOf(ctx)
	var out []float64
	cfg.Path += ".setup"
	for i := 0; i < n && ctx.Err() == nil; i++ {
		runtime.GC()
		srv, release, d, err := startServer(td, cfg)
		if err != nil {
			return nil, err
		}
		srv.Abort()
		release()
		if err := os.Remove(cfg.Path); err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, ctx.Err()
}

// timeRecoveries reopens copies of the aborted image at path n-1
// times, then the image itself, each with kvserve.New (the timed
// recovery), and returns the times with the contents and recovery
// statistics of the last reopening. The image is removed.
func timeRecoveries(ctx context.Context, cfg kvserve.Config, n int) ([]float64, map[uint64]uint64, []lpstore.RecoverStats, error) {
	td := teardownOf(ctx)
	var times []float64
	path := cfg.Path
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, nil, err
		}
		c := cfg
		if i < n-1 {
			c.Path = fmt.Sprintf("%s.r%d", path, i)
			if err := copyFile(path, c.Path); err != nil {
				return nil, nil, nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		re, err := kvserve.New(c)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("recover %s: %w", c.Path, err)
		}
		times = append(times, time.Since(t0).Seconds())
		release := td.add(func() { re.Abort() })
		var contents map[uint64]uint64
		var rs []lpstore.RecoverStats
		if i == n-1 {
			contents, rs = re.Contents(), re.RecoveryStats()
		}
		cerr := re.Close()
		release()
		if cerr != nil {
			return nil, nil, nil, fmt.Errorf("close recovered server: %w", cerr)
		}
		if err := os.Remove(c.Path); err != nil {
			return nil, nil, nil, err
		}
		if i == n-1 {
			return times, contents, rs, nil
		}
	}
	return nil, nil, nil, fmt.Errorf("no recovery run")
}

func copyFile(from, to string) error {
	b, err := os.ReadFile(from)
	if err != nil {
		return err
	}
	return os.WriteFile(to, b, 0o644)
}

// segment runs one server lifetime: build (timed as set-up), load,
// Abort, reopen with kvserve.New (timed as recovery), check the
// recovered image against the model, and remove the image.
func (k *kvRun) segment(ctx context.Context, mode lpstore.Mode, budget time.Duration, load loadFn) error {
	td := teardownOf(ctx)
	path := imagePath(k.p, fmt.Sprintf("kv-%d", k.n))
	k.n++
	cfg := k.cfg(path, mode)
	spans := k.layers != nil && k.layers.client != nil
	if spans {
		cfg.TraceCap = traceCap
	}
	var st segStats
	var err error
	if st.setup, err = timeSetups(ctx, cfg, extraSetups); err != nil {
		return err
	}
	runtime.GC()
	srv, release, d, err := startServer(td, cfg)
	if err != nil {
		return err
	}
	st.setup = append(st.setup, d.Seconds())
	k.model.reset()
	if spans {
		srv.Tracer().Enable(true)
	}

	var t *tally
	var lerr error
	runtime.GC() // set-up garbage is collected before the window, not in it
	st.win.timeWindow(func() { t, lerr = load(srv.Addr(), srv.Metrics(), cfg.Shards, budget) })
	if lerr != nil {
		srv.Abort()
		release()
		return lerr
	}
	st.win.ok = t.ok
	if u := journalUse(srv.Metrics(), cfg.Shards); u > 0 {
		st.budgetS = st.win.wall.Seconds() / u
	}
	if k.layers != nil {
		k.layers.addServer("n0", srv, cfg.Shards)
		k.layers.endSegment(t)
	}
	if err := srv.Abort(); err != nil {
		release()
		return fmt.Errorf("abort: %w", err)
	}
	release()

	var contents map[uint64]uint64
	var rs []lpstore.RecoverStats
	if st.recover, contents, rs, err = timeRecoveries(ctx, cfg, recoveries); err != nil {
		return err
	}
	for _, r := range rs {
		k.replayed += uint64(r.AckedPuts)
	}
	if mode == lpstore.ModeLP {
		k.violate("recovered image", k.model.checkImage(contents))
	}
	k.addSegment(st, t)
	return ctx.Err()
}

func (k *kvRun) addSegment(st segStats, t *tally) {
	k.segs = append(k.segs, st)
	k.win.wall += st.win.wall
	k.win.cpu += st.win.cpu
	k.win.ok += st.win.ok
	k.all.merge(t)
}

// segments runs segments until budget seconds of load have run.
func (k *kvRun) segments(ctx context.Context, mode lpstore.Mode, budget time.Duration, load loadFn) error {
	var used time.Duration
	for used < budget && ctx.Err() == nil {
		if err := k.segment(ctx, mode, budget-used, load); err != nil {
			return err
		}
		used += k.segs[len(k.segs)-1].win.wall
	}
	return ctx.Err()
}

// report writes the end-to-end metrics of the segments run so far:
// goodput and CPU per op as medians over segments, latencies as
// medians over latency chunks, set-up and recovery as medians over
// every build and reopening.
func (k *kvRun) report(res *result) {
	var goodputs, cpus, setups, recovers []float64
	for _, s := range k.segs {
		goodputs = append(goodputs, s.win.goodput())
		cpus = append(cpus, s.win.cpuUsPerOp())
		setups = append(setups, s.setup...)
		recovers = append(recovers, s.recover...)
	}
	res.set("goodput_ops_s", median(goodputs), "ops/s")
	res.set("lat_p50_us", k.all.lat[opPut].p50(), "us")
	res.set("lat_p95_us", k.all.lat[opPut].p95(), "us")
	res.set("cpu_us_per_op", median(cpus), "us")
	res.set("recover_s", median(recovers), "s")
	res.set("setup_s", median(setups), "s")
	res.set("peak_rss_mb", peakRSSMiB(), "MiB")
}

// finish folds the run's counts and checks into res.
func (k *kvRun) finish(res *result, where string) {
	res.Attempted += k.all.attempted
	res.Failed += k.all.failedTotal()
	logViolations(where, k.all)
	for _, b := range k.bad {
		fmt.Fprintf(os.Stderr, "lpperf: %s: %s\n", where, b)
	}
	if len(k.all.violations) > 0 || len(k.bad) > 0 {
		res.Correct = false
	}
}

func (k *kvRun) budgetS() float64 {
	var xs []float64
	for _, s := range k.segs {
		xs = append(xs, s.budgetS)
	}
	return median(xs)
}

// closedLoad is the closed-loop load of the kv segments, stopped at
// the journal limit or the budget.
func closedLoad(ctx context.Context, model *keyModel, gens []*ycsbGen, window int, ct *clientTrace) loadFn {
	return func(addr string, reg *obs.Registry, shards int, budget time.Duration) (*tally, error) {
		return closedLoop(ctx, addr, window, gens, model, ct, budget, func() bool {
			return journalUse(reg, shards) >= journalLimit
		})
	}
}

func ycsbGens(seed uint64, conns int) []*ycsbGen {
	gens := make([]*ycsbGen, conns)
	for c := range gens {
		gens[c] = newYCSBGen(seed, c, conns, kvStreams, kvKeys)
	}
	return gens
}

func runKVUpdateClosed(ctx context.Context, p params, res *result) error {
	const conns, window = 2, 64
	k := newKVRun(p)
	gens := ycsbGens(p.Seed, conns)
	budget := time.Duration(p.Seconds * float64(time.Second))
	if !p.Trace {
		if err := k.segments(ctx, lpstore.ModeLP, budget, closedLoad(ctx, k.model, gens, window, nil)); err != nil {
			return err
		}
		k.report(res)
		k.finish(res, "kv-update-closed")
		return nil
	}

	// Traced run: untraced reference, traced window, ModeBase
	// differential, the open-loop phase, then the direct layer timings.
	ref := newKVRun(p)
	if err := ref.segments(ctx, lpstore.ModeLP, budget*3/10, closedLoad(ctx, ref.model, gens, window, nil)); err != nil {
		return err
	}
	la := newLayerAgg()
	k.layers = la
	ct := newClientTrace(64)
	la.client = ct.tr
	if err := k.segments(ctx, lpstore.ModeLP, budget*3/10, closedLoad(ctx, k.model, gens, window, ct)); err != nil {
		return err
	}
	base := newKVRun(p)
	if err := base.segments(ctx, lpstore.ModeBase, budget*15/100, closedLoad(ctx, base.model, gens, window, nil)); err != nil {
		return err
	}
	open, err := runOpenPhase(ctx, p, budget/4, res)
	if err != nil {
		return err
	}
	la.report(res)
	res.set("kvserve.base_goodput_ops_s", base.win.goodput(), "ops/s")
	res.set("kvserve.recover_replayed_puts", float64(ref.replayed)/float64(len(ref.segs)), "count")
	res.set("kvserve.journal_budget_s", ref.budgetS(), "s")
	res.set("obs.trace_overhead_pct", overheadPct(ref.win.goodput(), k.win.goodput()), "%")
	res.set("client.put_p99_us", ref.all.lat[opPut].p99(), "us")
	res.set("client.get_p50_us", ref.all.lat[opGet].p50(), "us")
	res.set("client.get_p99_us", ref.all.lat[opGet].p99(), "us")
	measureStoreLayers(res, p.Seed)
	for _, r := range []*kvRun{ref, k, base, open} {
		r.finish(res, "kv-update-closed")
	}
	return nil
}

func overheadPct(untraced, traced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return 100 * (untraced - traced) / untraced
}

// steadySchedule expands the loadmodel "steady" spec (24k ops/s from
// 16 open-loop clients: 12 read-mostly YCSB-B zipfian, 4 YCSB-A
// uniform) for dur under the run's seed, and splits it across two
// connections by client parity. Client c reads and writes stream
// c % 4, so every key keeps a single writing connection.
func steadySchedule(p params, dur time.Duration, model *keyModel) ([][]schedOp, error) {
	spec, err := loadmodel.BuiltinSpec("steady", 1, fmt.Sprintf("%dms", dur.Milliseconds()))
	if err != nil {
		return nil, err
	}
	spec.Seed = p.Seed
	spec.PreloadSeed = p.Seed
	ops, err := loadmodel.Generate(spec)
	if err != nil {
		return nil, err
	}
	sched := make([][]schedOp, 2)
	for _, op := range ops {
		j, ok := model.index[op.Key]
		if !ok {
			return nil, fmt.Errorf("steady spec key %#x is not preloaded", op.Key)
		}
		kind := int8(opGet)
		if op.IsPut {
			kind = opPut
		}
		c := int(op.Client) % 2
		sched[c] = append(sched[c], schedOp{at: op.At, op: loadOp{kind: kind, key: j}})
	}
	return sched, nil
}

// openRun replays a schedule across fresh servers: each segment picks
// up where the previous one stopped, with its own time origin.
type openRun struct {
	sched     [][]schedOp
	next      []int
	pingEvery time.Duration
	pings     []uint32
}

func (o *openRun) remaining() (from int64, ok bool) {
	from, ok = int64(-1), false
	for c, s := range o.sched {
		if o.next[c] < len(s) && (!ok || s[o.next[c]].at < from) {
			from, ok = s[o.next[c]].at, true
		}
	}
	return from, ok
}

func (o *openRun) load(ctx context.Context, model *keyModel, end int64) loadFn {
	return func(addr string, reg *obs.Registry, shards int, budget time.Duration) (*tally, error) {
		from, ok := o.remaining()
		if !ok || from >= end {
			return newTally(openChunk), nil
		}
		var until atomic.Int64
		until.Store(end)
		done := make(chan struct{})
		quit := make(chan struct{})
		start := time.Now()
		go func() {
			defer close(done)
			pollUntil(ctx, 5*time.Millisecond, func() bool {
				select {
				case <-quit:
					return true
				default:
				}
				return journalUse(reg, shards) >= journalLimit
			})
			if cut := from + int64(time.Since(start)); cut < until.Load() {
				until.Store(cut)
			}
		}()
		t, next, pings, err := openLoop(addr, o.sched, o.next, from, &until, model, o.pingEvery)
		close(quit)
		<-done
		if err != nil {
			return nil, err
		}
		o.next = next
		o.pings = append(o.pings, pings...)
		return t, nil
	}
}

// openSegments runs segments until the schedule up to end is sent.
func (k *kvRun) openSegments(ctx context.Context, o *openRun, end int64) error {
	for ctx.Err() == nil {
		if from, ok := o.remaining(); !ok || from >= end {
			return nil
		}
		if err := k.segment(ctx, lpstore.ModeLP, time.Duration(end), o.load(ctx, k.model, end)); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// runOpenPhase replays dur of the steady schedule open loop, with
// pings riding connection 0, and reports the open-loop per-layer
// metrics. It is part of the kv-update-closed traced run: its tail
// latency spreads too widely between runs on a shared 2-CPU host to
// serve as an end-to-end metric (see README.md).
func runOpenPhase(ctx context.Context, p params, dur time.Duration, res *result) (*kvRun, error) {
	k := newKVRun(p)
	k.all = newTally(openChunk)
	sched, err := steadySchedule(p, dur, k.model)
	if err != nil {
		return nil, err
	}
	o := &openRun{sched: sched, next: make([]int, len(sched)), pingEvery: 5 * time.Millisecond}
	la := newLayerAgg()
	k.layers = la
	if err := k.openSegments(ctx, o, int64(dur)); err != nil {
		return nil, err
	}
	res.set("client.open_put_p50_us", k.all.lat[opPut].p50(), "us")
	res.set("client.open_put_p99_us", k.all.lat[opPut].p99(), "us")
	res.set("client.lag_p99_us", k.all.lag.p99(), "us")
	res.set("kvserve.ping_rtt_us", quantileUs(o.pings, 0.5), "us")
	res.set("kvserve.open_fill_us", la.stage["fill"].mean()/1e3, "us")
	if la.okPuts > 0 {
		res.set("kvserve.open_journal_slots_per_put", float64(la.stats.Puts+la.stats.Pads)/float64(la.okPuts), "count")
	}
	res.set("kvserve.open_journal_budget_s", k.budgetS(), "s")
	return k, nil
}
