// Command lpperf is the repository's end-to-end benchmark. It measures
// the LP stack from outside its public APIs: the simulator behind the
// paper's figures (sim, memsim, lp, checksum, ep, workloads, driven
// through harness) and the serving stack (lpstore → kvserve →
// cluster), with its own wire-protocol load generator.
//
//	lpperf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every server, node and router runs inside this process; backing
// images live in a private directory under the build directory and are
// removed on every exit path. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 they
// are the per-layer set. See README.md for the metric definitions.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"sync"
	"syscall"
	"time"
)

// runDeadline bounds one invocation: past it the run is abandoned,
// everything it started is aborted, and the process exits non-zero.
// With stuckGrace it stays under three minutes.
const runDeadline = 150 * time.Second

// stuckGrace is how long an abandoned run has to tear down its servers
// and remove its images (a cluster's recoveries take a few seconds
// under the race detector) before runGuarded gives up on it.
const stuckGrace = 20 * time.Second

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// params are one invocation's settings.
type params struct {
	Seed    uint64
	Seconds float64
	Trace   bool
	// Dir holds the run's backing images.
	Dir string
}

// workload runs one named workload and fills res. A returned error is
// a failed correctness check or a broken run: no result is printed.
type workload struct {
	name string
	run  func(ctx context.Context, p params, res *result) error
}

var benchWorkloads = []workload{
	{"sim-fig10", runSimFig10},
	{"kv-update-closed", runKVUpdateClosed},
	{"cluster-routed", runClusterRouted},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// teardown is the run's cleanup list: every server, node and router
// registers its abort here when it starts and deregisters when it is
// closed in the normal flow. runWorkload drains it on every exit path.
type teardown struct {
	mu   sync.Mutex
	fns  []func() // nil once released
	done bool
}

func newTeardown() *teardown { return &teardown{} }

// add registers fn and returns a release that deregisters it without
// running it. After the teardown has run, add runs fn at once.
func (t *teardown) add(fn func()) (release func()) {
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		fn()
		return func() {}
	}
	i := len(t.fns)
	t.fns = append(t.fns, fn)
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		if !t.done {
			t.fns[i] = nil
		}
		t.mu.Unlock()
	}
}

// run calls every registered fn, newest first, once.
func (t *teardown) run() {
	t.mu.Lock()
	fns := t.fns
	if t.done {
		fns = nil
	}
	t.done, t.fns = true, nil
	t.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		if fns[i] != nil {
			fns[i]()
		}
	}
}

type tdKey struct{}

// teardownOf returns the run's cleanup list carried by ctx.
func teardownOf(ctx context.Context) *teardown { return ctx.Value(tdKey{}).(*teardown) }

// runWorkload executes w and guarantees that, however it ends (result,
// failed check, panic, deadline), everything it started is torn down
// and its image directory p.Dir is gone before it returns.
func runWorkload(ctx context.Context, w workload, p params) (res *result, err error) {
	td := teardownOf(ctx)
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
			res = nil
		}
		td.run()
		if rerr := os.RemoveAll(p.Dir); rerr != nil && err == nil {
			err = fmt.Errorf("remove images: %w", rerr)
		}
	}()
	res = &result{Correct: true, Metrics: map[string]metric{}}
	if p.Trace {
		zeroLayers(res)
	}
	if err := w.run(ctx, p, res); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("run abandoned: %w", ctx.Err())
	}
	return res, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: sim-fig10, kv-update-closed, cluster-routed")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		root    = flag.String("dir", ".bench_build", "directory for the run's private image directory")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || *seed == 0 {
		fmt.Fprintf(os.Stderr, "lpperf: usage: --workload <name> --seed <n≥1> --seconds <s> --trace <0|1>\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*root, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "lpperf: %v\n", err)
		os.Exit(1)
	}
	p := params{Seed: *seed, Seconds: *seconds, Trace: *trace == 1}
	res, err := runGuarded(w, *root, p, runDeadline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lpperf: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lpperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// errDeadline reports a run that overran its deadline or was
// interrupted by a signal.
var errDeadline = errors.New("deadline or signal: run abandoned")

// runGuarded runs w in a fresh image directory under root, under a
// deadline and SIGINT/SIGTERM. A cancelled flow tears down what it
// started and returns. If it is stuck past stuckGrace, runGuarded
// removes the image directory and returns; the caller then exits, which
// ends every in-process server (aborting them from here would race
// with the stuck flow's own teardown).
func runGuarded(w workload, root string, p params, deadline time.Duration) (*result, error) {
	dir, err := os.MkdirTemp(root, "lpperf-"+w.name+"-*")
	if err != nil {
		return nil, fmt.Errorf("image dir: %w", err)
	}
	p.Dir = dir
	td := newTeardown()
	ctx, cancel := context.WithTimeout(context.WithValue(context.Background(), tdKey{}, td), deadline)
	defer cancel()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)

	type outcome struct {
		res *result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := runWorkload(ctx, w, p)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-sigs:
		cancel()
	case <-ctx.Done():
	}
	select {
	case o := <-done:
		if o.err == nil {
			o.err = errDeadline
		}
		return nil, o.err
	case <-time.After(stuckGrace):
	}
	os.RemoveAll(dir)
	return nil, errDeadline
}

// imagePath names a backing image inside the run's directory.
func imagePath(p params, name string) string { return filepath.Join(p.Dir, name+".img") }
