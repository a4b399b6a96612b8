package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"lazyp/internal/cluster"
	"lazyp/internal/kvserve"
	"lazyp/internal/lpstore"
	"lazyp/internal/obs"
)

// cluster-routed: three in-process cluster nodes and the router at the
// E16 geometry (2 shards × 32768 slots, a 131072-put journal per
// shard, K = 32, BatchWait 300µs, pipeline depth 2, replication window
// 512), loaded through the router by 2 connections × 128 in flight of
// YCSB-A over the preloaded keys.

var clusterIDs = []string{"e0", "e1", "e2"}

const clusterShards = 2

func clusterNodeCfg(p params, path string) kvserve.Config {
	return kvserve.Config{
		Addr: "127.0.0.1:0", Path: path, Mode: lpstore.ModeLP,
		Shards: clusterShards, Capacity: 1 << 15, MaxOps: 1 << 17, BatchK: 32,
		Streams: kvStreams, Keys: kvKeys, Seed: p.Seed,
		Mailbox: 256, BatchWait: 300 * time.Microsecond, PipelineDepth: 2,
	}
}

// clusterRun accumulates cluster segments; it reuses kvRun's
// accounting.
type clusterRun struct {
	*kvRun
	pairs  [][2]int
	router *obs.Tracer
}

// liveCluster is one running cluster: three nodes and the router.
type liveCluster struct {
	nodes   []*cluster.Node
	router  *cluster.Router
	paths   []string
	release func()
}

// abort tears everything down without draining.
func (lc *liveCluster) abort() {
	if lc.router != nil {
		lc.router.Close()
	}
	for _, n := range lc.nodes {
		if n != nil {
			n.Abort()
		}
	}
}

// startCluster boots three nodes and the router on fresh images named
// by tag and waits until every node applied the router's first
// topology. It returns the cluster and its set-up time.
func (c *clusterRun) startCluster(ctx context.Context, tag string, traced bool) (*liveCluster, time.Duration, error) {
	td := teardownOf(ctx)
	runtime.GC()
	t0 := time.Now()
	lc := &liveCluster{nodes: make([]*cluster.Node, len(clusterIDs)), paths: make([]string, len(clusterIDs))}
	lc.release = td.add(lc.abort)
	fail := func(err error) (*liveCluster, time.Duration, error) {
		lc.abort()
		lc.release()
		return nil, 0, err
	}
	var infos []cluster.NodeInfo
	for i, id := range clusterIDs {
		lc.paths[i] = imagePath(c.p, id+"-"+tag)
		cfg := clusterNodeCfg(c.p, lc.paths[i])
		if traced {
			cfg.TraceCap = traceCap
		}
		n, err := cluster.StartNode(cluster.NodeConfig{ID: id, Server: cfg, Repl: cluster.ReplConfig{Window: 512}})
		if err != nil {
			return fail(fmt.Errorf("node %s: %w", id, err))
		}
		lc.nodes[i] = n
		infos = append(infos, cluster.NodeInfo{ID: id, Addr: n.Server().Addr(), Ctrl: "http://" + n.CtrlAddr()})
	}
	rcfg := cluster.RouterConfig{Nodes: infos, Heartbeat: 20 * time.Millisecond, LeaseMiss: 3}
	if traced {
		rcfg.Tracer = c.router
	}
	r, err := cluster.StartRouter(rcfg)
	if err != nil {
		return fail(fmt.Errorf("router: %w", err))
	}
	lc.router = r
	applied := func() bool {
		ep := r.Topology().Epoch
		if ep == 0 {
			return false
		}
		for _, n := range lc.nodes {
			if n.Repl().Epoch() < ep {
				return false
			}
		}
		return true
	}
	pollUntil(ctx, time.Millisecond, applied)
	if !applied() {
		return fail(fmt.Errorf("cluster: topology never applied: %v", ctx.Err()))
	}
	return lc, time.Since(t0), nil
}

// stop closes the router, aborts every node and deregisters the
// cluster from the teardown.
func (lc *liveCluster) stop() error {
	defer lc.release()
	err := lc.router.Close()
	lc.router = nil
	for _, n := range lc.nodes {
		if aerr := n.Abort(); aerr != nil && err == nil {
			err = fmt.Errorf("abort node %s: %w", n.ID, aerr)
		}
	}
	lc.nodes = nil
	return err
}

// segment builds a cluster (timed as set-up: nodes, router, first
// topology applied everywhere), loads it through the router, aborts
// every node, recovers each image with kvserve.New (timed per node)
// and checks that both members of every key's pair hold its last
// acknowledged value while the third node still holds the preload.
func (c *clusterRun) segment(ctx context.Context, budget time.Duration, window int, gens []*ycsbGen, ct *clientTrace) error {
	var st segStats
	// One throwaway build per segment doubles the set-up samples.
	spare, d, err := c.startCluster(ctx, fmt.Sprintf("%d-setup", c.n), false)
	if err != nil {
		return err
	}
	st.setup = append(st.setup, d.Seconds())
	if err := spare.stop(); err != nil {
		return err
	}
	for _, p := range spare.paths {
		if err := os.Remove(p); err != nil {
			return err
		}
	}
	lc, d, err := c.startCluster(ctx, strconv.Itoa(c.n), ct != nil)
	if err != nil {
		return err
	}
	c.n++
	st.setup = append(st.setup, d.Seconds())
	c.model.reset()
	if ct != nil {
		lc.router.Tracer().Enable(true)
		for _, n := range lc.nodes {
			n.Server().Tracer().Enable(true)
		}
	}

	var t *tally
	var lerr error
	runtime.GC() // set-up garbage is collected before the window, not in it
	st.win.timeWindow(func() {
		t, lerr = closedLoop(ctx, lc.router.Addr(), window, gens, c.model, ct, budget, func() bool {
			for _, n := range lc.nodes {
				if journalUse(n.Server().Metrics(), clusterShards) >= journalLimit {
					return true
				}
			}
			return false
		})
	})
	if lerr != nil {
		lc.stop()
		return lerr
	}
	st.win.ok = t.ok
	for _, n := range lc.nodes {
		if u := journalUse(n.Server().Metrics(), clusterShards); u > 0 && st.win.wall.Seconds()/u > st.budgetS {
			st.budgetS = st.win.wall.Seconds() / u
		}
	}
	if ct != nil {
		c.layers.routerB += lc.router.Metrics().Scope().Counter("router_proxy_bytes_total").Load()
		c.layers.drains["router"] = lc.router.Tracer().Drain(traceCap)
		for i, n := range lc.nodes {
			c.layers.addServer(clusterIDs[i], n.Server(), clusterShards)
		}
		c.layers.endSegment(t)
	}
	if err := lc.stop(); err != nil {
		return err
	}

	// Recover every image as a plain server and check the pairs.
	contents := make([]map[uint64]uint64, len(clusterIDs))
	for i, path := range lc.paths {
		times, got, rs, err := timeRecoveries(ctx, clusterNodeCfg(c.p, path), 2)
		if err != nil {
			return err
		}
		st.recover = append(st.recover, times...)
		contents[i] = got
		for _, r := range rs {
			c.replayed += uint64(r.AckedPuts)
		}
	}
	c.violate("cluster images", c.checkPairs(contents))
	c.addSegment(st, t)
	return ctx.Err()
}

// checkPairs checks recovered node images: both members of a key's
// pair hold its last acknowledged value (every sent put was acked, so
// that is also its last sent value), and the third node, which never
// sees the key's puts, still holds its preload value.
func (c *clusterRun) checkPairs(contents []map[uint64]uint64) []string {
	var bad []string
	for j, k := range c.model.keys {
		pair := c.pairs[cluster.SlotOf(k)]
		want := c.model.preload[j]
		if v := c.model.acked[j].Load(); v > 0 {
			want = valTag | v
		}
		if c.model.sent[j].Load() != c.model.acked[j].Load() {
			bad = append(bad, fmt.Sprintf("key %#x: %d versions sent but %d acked", k, c.model.sent[j].Load(), c.model.acked[j].Load()))
		}
		for i := range contents {
			w := c.model.preload[j]
			if i == pair[0] || i == pair[1] {
				w = want
			}
			if got, ok := contents[i][k]; !ok || got != w {
				bad = append(bad, fmt.Sprintf("key %#x on %s: holds %#x (present %v), want %#x", k, clusterIDs[i], got, ok, w))
			}
		}
		if len(bad) > 8 {
			break
		}
	}
	return bad
}

func (c *clusterRun) segments(ctx context.Context, budget time.Duration, window int, gens []*ycsbGen, ct *clientTrace) error {
	var used time.Duration
	for used < budget && ctx.Err() == nil {
		if err := c.segment(ctx, budget-used, window, gens, ct); err != nil {
			return err
		}
		used += c.segs[len(c.segs)-1].win.wall
	}
	return ctx.Err()
}

func newClusterRun(p params) (*clusterRun, error) {
	pairs, err := cluster.BuildPairs(clusterIDs, cluster.DefaultVNodes, cluster.DefaultLoadFactor)
	if err != nil {
		return nil, err
	}
	return &clusterRun{kvRun: newKVRun(p), pairs: pairs}, nil
}

func runClusterRouted(ctx context.Context, p params, res *result) error {
	const conns, window = 2, 128
	gens := ycsbGens(p.Seed, conns)
	budget := time.Duration(p.Seconds * float64(time.Second))
	c, err := newClusterRun(p)
	if err != nil {
		return err
	}
	if !p.Trace {
		if err := c.segments(ctx, budget, window, gens, nil); err != nil {
			return err
		}
		c.report(res)
		c.finish(res, "cluster-routed")
		return nil
	}

	// Traced run: untraced reference, traced window, then the same
	// load on one plain node at the same geometry.
	ref, err := newClusterRun(p)
	if err != nil {
		return err
	}
	if err := ref.segments(ctx, budget*3/10, window, gens, nil); err != nil {
		return err
	}
	c.layers = newLayerAgg()
	ct := newClientTrace(32)
	c.layers.client = ct.tr
	c.router = obs.NewTracer(traceCap)
	if err := c.segments(ctx, budget*4/10, window, gens, ct); err != nil {
		return err
	}
	single := newKVRun(p)
	single.cfg = func(path string, _ lpstore.Mode) kvserve.Config { return clusterNodeCfg(p, path) }
	if err := single.segments(ctx, lpstore.ModeLP, budget*2/10, closedLoad(ctx, single.model, gens, window, nil)); err != nil {
		return err
	}
	c.layers.report(res)
	res.set("cluster.single_goodput_ops_s", single.win.goodput(), "ops/s")
	res.set("kvserve.recover_replayed_puts", float64(ref.replayed)/float64(len(ref.segs)), "count")
	res.set("kvserve.journal_budget_s", ref.budgetS(), "s")
	res.set("obs.trace_overhead_pct", overheadPct(ref.win.goodput(), c.win.goodput()), "%")
	res.set("client.put_p99_us", ref.all.lat[opPut].p99(), "us")
	res.set("client.get_p50_us", ref.all.lat[opGet].p50(), "us")
	res.set("client.get_p99_us", ref.all.lat[opGet].p99(), "us")
	measureStoreLayers(res, p.Seed)
	ref.finish(res, "cluster-routed")
	c.finish(res, "cluster-routed")
	single.finish(res, "cluster-routed")
	return nil
}
