package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lazyp/internal/kvserve"
	"lazyp/internal/obs"
	"lazyp/internal/workloads"
)

// The load generator speaks the kvserve wire protocol itself (EncodeReq /
// DecodeResp, OpHello / OpTraceCtx), so the instrument is independent
// of the repository's own load engines. It never retries: every
// non-OK answer and every op lost with its connection is a failed op,
// counted by cause.

// valTag marks values the load generator wrote; the low 56 bits are the
// key's version (1, 2, ...). Preload values are splitmix outputs, so a
// collision with a tagged value is a 2^-56 event per key.
const (
	valTag  = uint64(0x5a) << 56
	verMask = uint64(1)<<56 - 1
)

// keyModel is the load generator's independent model of what every preloaded
// key may hold. Each key has exactly one writing connection, so its
// versions are sent in order; sent and acked are the highest version
// sent and acknowledged so far.
type keyModel struct {
	keys    []uint64
	preload []uint64
	index   map[uint64]int32
	sent    []atomic.Uint64
	acked   []atomic.Uint64
}

// newKeyModel models the kvserve preload: keys KVKey(s, i) for every
// stream s < streams and i < keys, valued KVInitVal(seed, key).
func newKeyModel(streams, keys int, seed uint64) *keyModel {
	n := streams * keys
	m := &keyModel{
		keys:    make([]uint64, n),
		preload: make([]uint64, n),
		index:   make(map[uint64]int32, n),
		sent:    make([]atomic.Uint64, n),
		acked:   make([]atomic.Uint64, n),
	}
	for s := 0; s < streams; s++ {
		for i := 0; i < keys; i++ {
			j := s*keys + i
			k := workloads.KVKey(s, i)
			m.keys[j] = k
			m.preload[j] = workloads.KVInitVal(seed, k)
			m.index[k] = int32(j)
		}
	}
	return m
}

// reset forgets every write: the next server starts from the preload.
func (m *keyModel) reset() {
	for i := range m.sent {
		m.sent[i].Store(0)
		m.acked[i].Store(0)
	}
}

// checkRead reports whether v is a value key j may hold when read by
// a get sent after version ackedAtSend was acknowledged.
func (m *keyModel) checkRead(j int32, v, ackedAtSend uint64) bool {
	if v == m.preload[j] {
		return ackedAtSend == 0
	}
	ver := v & verMask
	return v&^verMask == valTag && ver >= 1 && ver >= ackedAtSend && ver <= m.sent[j].Load()
}

// checkDurable reports whether v is a value key j may hold after a
// crash and recovery: no older than its last acknowledged version and
// never a value that was not sent.
func (m *keyModel) checkDurable(j int32, v uint64) bool {
	return m.checkRead(j, v, m.acked[j].Load())
}

// checkImage compares a recovered (or drained) server's contents with
// the model and returns the violations found.
func (m *keyModel) checkImage(contents map[uint64]uint64) []string {
	var bad []string
	if len(contents) != len(m.keys) {
		bad = append(bad, fmt.Sprintf("image holds %d keys, want the %d preloaded", len(contents), len(m.keys)))
	}
	for j, k := range m.keys {
		v, ok := contents[k]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("key %#x lost", k))
		case !m.checkDurable(int32(j), v):
			bad = append(bad, fmt.Sprintf("key %#x holds %#x; acked version %d, sent %d", k, v, m.acked[j].Load(), m.sent[j].Load()))
		}
		if len(bad) > 8 {
			break
		}
	}
	return bad
}

// opKind distinguishes the timed operation classes.
const (
	opGet = iota
	opPut
)

// loadOp is one operation to send: a key (model index) and its class.
type loadOp struct {
	kind int8
	key  int32
}

// tally is one connection's (or one segment's) outcome: exact latency
// samples in nanoseconds per class, counts, failures by cause, and
// correctness violations.
type tally struct {
	lat        [2]*latStats
	lag        *latStats // open loop: send time minus scheduled time
	attempted  uint64
	ok         uint64
	okPuts     uint64
	failed     map[string]uint64
	violations []string
}

// Latency chunk sizes: a closed-loop connection completes thousands of
// puts per 10 ms; the open loop's puts arrive at ~2k/s per connection.
const (
	closedChunk = 8192
	openChunk   = 2048
)

func newTally(putChunk int) *tally {
	return &tally{
		lat: [2]*latStats{newLatStats(closedChunk), newLatStats(putChunk)},
		lag: newLatStats(closedChunk),
	}
}

func (t *tally) fail(cause string, n uint64) {
	if t.failed == nil {
		t.failed = map[string]uint64{}
	}
	t.failed[cause] += n
}

func (t *tally) violate(s string) {
	if len(t.violations) < 16 {
		t.violations = append(t.violations, s)
	}
}

func (t *tally) failedTotal() uint64 {
	var n uint64
	for _, c := range t.failed {
		n += c
	}
	return n
}

// merge folds o into t.
func (t *tally) merge(o *tally) {
	for c := range t.lat {
		t.lat[c].merge(o.lat[c])
	}
	t.lag.merge(o.lag)
	t.attempted += o.attempted
	t.ok += o.ok
	t.okPuts += o.okPuts
	for c, n := range o.failed {
		t.fail(c, n)
	}
	for _, v := range o.violations {
		t.violate(v)
	}
}

func clampNs(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > time.Duration(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}

// clientTrace stamps client_send / client_ack span events for sampled
// puts into the benchmark's own tracer. Trace IDs are minted per
// connection in a range no server mints in.
type clientTrace struct {
	tr    *obs.Tracer
	every int // trace every every-th put of a connection
}

func newClientTrace(every int) *clientTrace {
	ct := &clientTrace{tr: obs.NewTracer(traceCap), every: every}
	ct.tr.Enable(true)
	return ct
}

// slot is one in-flight request. seq on the wire is the slot index.
type slot struct {
	op      loadOp
	ver     uint64
	ackedAt uint64 // for gets: the key's acked version at send
	due     time.Time
	tid     uint64
	ping    bool
}

// wireConn is one benchmark connection.
type wireConn struct {
	c   net.Conn
	br  *bufio.Reader
	out []byte
}

func dialWire(addr string, trace bool) (*wireConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	w := &wireConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}
	if trace {
		var b [kvserve.ReqSize]byte
		kvserve.EncodeReq(&b, kvserve.OpHello, 0, kvserve.FeatTrace, 0)
		var r [kvserve.RespSize]byte
		if _, err := c.Write(b[:]); err != nil {
			c.Close()
			return nil, fmt.Errorf("hello: %w", err)
		}
		if _, err := io.ReadFull(w.br, r[:]); err != nil {
			c.Close()
			return nil, fmt.Errorf("hello: %w", err)
		}
		if _, st, v := kvserve.DecodeResp(&r); st != kvserve.StatusOK || v&kvserve.FeatTrace == 0 {
			c.Close()
			return nil, fmt.Errorf("hello: server did not grant tracing")
		}
	}
	return w, nil
}

// dialAll opens n connections, or none.
func dialAll(addr string, n int, trace bool) ([]*wireConn, error) {
	var ws []*wireConn
	for i := 0; i < n; i++ {
		w, err := dialWire(addr, trace)
		if err != nil {
			for _, w := range ws {
				w.c.Close()
			}
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

func (w *wireConn) enc(op byte, seq uint32, key, val uint64) {
	var b [kvserve.ReqSize]byte
	kvserve.EncodeReq(&b, op, seq, key, val)
	w.out = append(w.out, b[:]...)
}

func (w *wireConn) flush() error {
	if len(w.out) == 0 {
		return nil
	}
	_, err := w.c.Write(w.out)
	w.out = w.out[:0]
	return err
}

// sender turns loadOps into frames and completes responses against
// the model. One sender per connection; it is not safe for concurrent
// use except where noted.
type sender struct {
	conn  int
	m     *keyModel
	t     *tally
	ct    *clientTrace
	tids  uint64
	puts  int
	slots []slot
}

// send records op in slot s and encodes its frame (with a trace
// prefix for a sampled put) into w's output buffer.
func (sd *sender) send(w *wireConn, s uint32, op loadOp, due time.Time) {
	sl := &sd.slots[s]
	*sl = slot{op: op, due: due}
	k := sd.m.keys[op.key]
	sd.t.attempted++
	if op.kind == opGet {
		sl.ackedAt = sd.m.acked[op.key].Load()
		w.enc(kvserve.OpGet, s, k, 0)
		return
	}
	sl.ver = sd.m.sent[op.key].Add(1)
	sd.puts++
	if sd.ct != nil && sd.puts%sd.ct.every == 0 {
		sd.tids++
		sl.tid = uint64(sd.conn+1)<<32 | sd.tids
		w.enc(kvserve.OpTraceCtx, s, sl.tid, 0)
		sd.ct.tr.Record(obs.EvClientSend, -1, time.Now().UnixNano(), sl.tid, k)
	}
	w.enc(kvserve.OpPut, s, k, valTag|sl.ver)
}

// complete settles slot s with a response.
func (sd *sender) complete(s uint32, st byte, v uint64, now time.Time) {
	sl := &sd.slots[s]
	if sl.ping {
		return
	}
	lat := clampNs(now.Sub(sl.due))
	j := sl.op.key
	switch {
	case st != kvserve.StatusOK:
		sd.t.fail(kvserve.StatusName(st), 1)
	case sl.op.kind == opPut:
		// One writer per key and in-order commit per shard: acks of a
		// key arrive in version order, but keep the max regardless.
		for {
			a := sd.m.acked[j].Load()
			if sl.ver <= a || sd.m.acked[j].CompareAndSwap(a, sl.ver) {
				break
			}
		}
		sd.t.ok++
		sd.t.okPuts++
		sd.t.lat[opPut].add(lat)
		if sl.tid != 0 {
			sd.ct.tr.Record(obs.EvClientAck, -1, now.UnixNano(), sl.tid, uint64(lat))
		}
	default:
		if !sd.m.checkRead(j, v, sl.ackedAt) {
			sd.t.violate(fmt.Sprintf("get %#x returned %#x; acked version at send %d, sent %d",
				sd.m.keys[j], v, sl.ackedAt, sd.m.sent[j].Load()))
		}
		sd.t.ok++
		sd.t.lat[opGet].add(lat)
	}
}

// ycsbGen draws YCSB-A ops for one connection: 50% gets over every
// stream, 50% puts over the streams this connection owns, keys by
// zipfian (θ = 0.99) rank within the stream.
type ycsbGen struct {
	rng      uint64
	zipf     *workloads.ZipfSampler
	keys     int
	streams  int
	conn     int
	conns    int
	ownCount int
}

func newYCSBGen(seed uint64, conn, conns, streams, keys int) *ycsbGen {
	own := 0
	for s := conn; s < streams; s += conns {
		own++
	}
	return &ycsbGen{
		rng:      workloads.SplitMix64(seed*0x9e3779b97f4a7c15 + uint64(conn) + 1),
		zipf:     workloads.NewZipfSampler(keys, 0.99),
		keys:     keys,
		streams:  streams,
		conn:     conn,
		conns:    conns,
		ownCount: own,
	}
}

func (g *ycsbGen) next64() uint64 {
	g.rng += 0x9e3779b97f4a7c15
	return workloads.SplitMix64(g.rng)
}

func (g *ycsbGen) next() loadOp {
	r := g.next64()
	rank := g.zipf.Rank(g.next64() >> 11)
	if r%2 == 0 {
		s := int(g.next64() % uint64(g.streams))
		return loadOp{kind: opGet, key: int32(s*g.keys + rank)}
	}
	s := g.conn + g.conns*int(g.next64()%uint64(g.ownCount))
	return loadOp{kind: opPut, key: int32(s*g.keys + rank)}
}

// closedLoop runs one connection per generator against addr, each
// keeping window requests in flight and sending the next op as soon as
// one completes, until budget is spent or full reports true (polled
// every 5 ms); then it drains what is in flight. Each connection's
// outcome is merged into the returned tally.
func closedLoop(ctx context.Context, addr string, window int, gens []*ycsbGen, m *keyModel, ct *clientTrace,
	budget time.Duration, full func() bool) (*tally, error) {
	ws, err := dialAll(addr, len(gens), ct != nil)
	if err != nil {
		return nil, err
	}
	var stop atomic.Bool
	quit := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		end := time.Now().Add(budget)
		pollUntil(ctx, 5*time.Millisecond, func() bool {
			select {
			case <-quit:
				return true
			default:
			}
			return time.Now().After(end) || full()
		})
		stop.Store(true)
	}()
	tallies := make([]*tally, len(ws))
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for c, w := range ws {
		tallies[c] = newTally(closedChunk)
		wg.Add(1)
		go func(c int, w *wireConn) {
			defer wg.Done()
			defer w.c.Close()
			errs[c] = runClosedConn(w, c, window, gens[c], m, ct, tallies[c], &stop)
		}(c, w)
	}
	wg.Wait()
	close(quit)
	<-watched
	total := newTally(closedChunk)
	for c, t := range tallies {
		if errs[c] != nil {
			return nil, errs[c]
		}
		total.merge(t)
	}
	return total, nil
}

func runClosedConn(w *wireConn, conn, window int, g *ycsbGen, m *keyModel, ct *clientTrace, t *tally, stop *atomic.Bool) error {
	sd := &sender{conn: conn, m: m, t: t, ct: ct, slots: make([]slot, window)}
	now := time.Now()
	for s := 0; s < window; s++ {
		sd.send(w, uint32(s), g.next(), now)
	}
	if err := w.flush(); err != nil {
		return err
	}
	inflight := window
	var rb [kvserve.RespSize]byte
	for inflight > 0 {
		if _, err := io.ReadFull(w.br, rb[:]); err != nil {
			t.fail("conn_lost", uint64(inflight))
			return fmt.Errorf("connection %d: %w (%d in flight)", conn, err, inflight)
		}
		seq, st, v := kvserve.DecodeResp(&rb)
		if int(seq) >= window {
			return fmt.Errorf("connection %d: response for unknown seq %d", conn, seq)
		}
		now := time.Now()
		sd.complete(seq, st, v, now)
		inflight--
		if !stop.Load() {
			sd.send(w, seq, g.next(), now)
			inflight++
		}
		if w.br.Buffered() < kvserve.RespSize {
			if err := w.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// schedOp is one open-loop op: due at At ns on the schedule.
type schedOp struct {
	at int64
	op loadOp
}

// openConnSlots bounds one open-loop connection's in-flight requests.
// A schedule that outruns it stalls the sender, which shows as lag.
const openConnSlots = 4096

// openLoop sends each connection's ops at their scheduled times,
// regardless of completions, from sched[c][from[c]:] while op.at <
// *until (which may be lowered while running), with origin the
// schedule time that maps to the wall-clock start. Latency runs from
// the scheduled time. It returns the merged tally and, per connection,
// the index of the first op not sent. pingEvery > 0 also sends an
// OpPing frame on connection 0 at that period (not counted as an op)
// and returns the round-trip times.
func openLoop(addr string, sched [][]schedOp, from []int, origin int64, until *atomic.Int64, m *keyModel, pingEvery time.Duration) (*tally, []int, []uint32, error) {
	ws, err := dialAll(addr, len(sched), false)
	if err != nil {
		return nil, nil, nil, err
	}
	tallies := make([]*tally, len(ws))
	next := make([]int, len(ws))
	errs := make([]error, len(ws))
	pings := make([][]uint32, len(ws))
	start := time.Now()
	var wg sync.WaitGroup
	for c, w := range ws {
		tallies[c] = newTally(openChunk)
		pe := pingEvery
		if c != 0 {
			pe = 0
		}
		wg.Add(1)
		go func(c int, w *wireConn) {
			defer wg.Done()
			defer w.c.Close()
			next[c], pings[c], errs[c] = runOpenConn(w, c, sched[c], from[c], origin, start, until, m, tallies[c], pe)
		}(c, w)
	}
	wg.Wait()
	total := newTally(openChunk)
	var allPings []uint32
	for c, t := range tallies {
		if errs[c] != nil {
			return nil, nil, nil, errs[c]
		}
		total.merge(t)
		allPings = append(allPings, pings[c]...)
	}
	return total, next, allPings, nil
}

func runOpenConn(w *wireConn, conn int, ops []schedOp, i int, origin int64, start time.Time, until *atomic.Int64,
	m *keyModel, t *tally, pingEvery time.Duration) (int, []uint32, error) {
	sd := &sender{conn: conn, m: m, t: t, slots: make([]slot, openConnSlots)}
	// mu guards sd (slots, tally), free, inflight, sendDone and pings
	// between the sending and the reading goroutine.
	var mu sync.Mutex
	free := make([]uint32, 0, openConnSlots)
	for s := openConnSlots - 1; s >= 0; s-- {
		free = append(free, uint32(s))
	}
	inflight, sendDone := 0, false
	var pings []uint32
	slotFreed := make(chan struct{}, 1)
	settled := make(chan struct{}) // closed once the sender is done and nothing is in flight
	readErr := make(chan error, 1)

	go func() {
		var rb [kvserve.RespSize]byte
		for {
			if _, err := io.ReadFull(w.br, rb[:]); err != nil {
				mu.Lock()
				quiet := sendDone && inflight == 0
				if !quiet {
					t.fail("conn_lost", uint64(inflight))
				}
				mu.Unlock()
				if quiet {
					err = nil // the sender unblocked this read on purpose
				} else {
					err = fmt.Errorf("connection %d: %w", conn, err)
				}
				readErr <- err
				return
			}
			seq, st, v := kvserve.DecodeResp(&rb)
			now := time.Now()
			mu.Lock()
			if int(seq) >= openConnSlots {
				mu.Unlock()
				readErr <- fmt.Errorf("connection %d: response for unknown seq %d", conn, seq)
				return
			}
			if sd.slots[seq].ping {
				pings = append(pings, clampNs(now.Sub(sd.slots[seq].due)))
			}
			sd.complete(seq, st, v, now)
			free = append(free, seq)
			inflight--
			if sendDone && inflight == 0 {
				close(settled)
			}
			mu.Unlock()
			select {
			case slotFreed <- struct{}{}:
			default:
			}
		}
	}()

	nextPing := start
	var err error
	readerGone := false
send:
	for i < len(ops) && ops[i].at < until.Load() {
		due := start.Add(time.Duration(ops[i].at - origin))
		if pingEvery > 0 && nextPing.Before(due) {
			due = nextPing
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		mu.Lock()
		if pingEvery > 0 && !now.Before(nextPing) && len(free) > 0 {
			s := free[len(free)-1]
			free = free[:len(free)-1]
			sd.slots[s] = slot{ping: true, due: now}
			w.enc(kvserve.OpPing, s, 1, 0)
			inflight++
			nextPing = now.Add(pingEvery)
		}
		// Send every op already due, as one write.
		for i < len(ops) && ops[i].at < until.Load() && len(free) > 0 {
			due := start.Add(time.Duration(ops[i].at - origin))
			if due.After(now) {
				break
			}
			s := free[len(free)-1]
			free = free[:len(free)-1]
			sd.send(w, s, ops[i].op, due)
			t.lag.add(clampNs(now.Sub(due)))

			inflight++
			i++
		}
		full := len(free) == 0
		err = w.flush()
		mu.Unlock()
		if err != nil {
			break
		}
		if full {
			select {
			case <-slotFreed:
			case err = <-readErr:
				readerGone = true
				break send
			}
		}
	}
	if readerGone {
		if err == nil {
			err = fmt.Errorf("connection %d: closed by the server", conn)
		}
		return i, pings, err
	}
	mu.Lock()
	sendDone = true
	if inflight == 0 {
		close(settled)
	}
	mu.Unlock()
	if err == nil {
		select {
		case <-settled:
		case err = <-readErr:
			if err == nil {
				err = fmt.Errorf("connection %d: closed with requests in flight", conn)
			}
			return i, pings, err
		}
	}
	// Unblock the reader's pending read; it exits quietly once settled.
	w.c.SetReadDeadline(time.Now())
	if rerr := <-readErr; err == nil {
		err = rerr
	}
	return i, pings, err
}

// logViolations prints a tally's correctness violations to stderr.
func logViolations(where string, t *tally) {
	for _, v := range t.violations {
		fmt.Fprintf(os.Stderr, "lpperf: %s: %s\n", where, v)
	}
	for c, n := range t.failed {
		fmt.Fprintf(os.Stderr, "lpperf: %s: %d ops failed: %s\n", where, n, c)
	}
}

// pollUntil calls cond every period until it returns true or ctx ends.
func pollUntil(ctx context.Context, period time.Duration, cond func() bool) {
	tk := time.NewTicker(period)
	defer tk.Stop()
	for !cond() {
		select {
		case <-ctx.Done():
			return
		case <-tk.C:
		}
	}
}
