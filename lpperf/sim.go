package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"lazyp/internal/harness"
	"lazyp/internal/sim"
	"lazyp/internal/workloads"
)

// sim-fig10 runs the paper's evaluation matrix in the simulator, one
// spec at a time: tmm, cholesky, conv2d, gauss and fft under base, LP
// and EP, plus TMM under WAL, at the sizes harness.BenchMatrix uses.
// An operation is one simulated spec. The matrix has no seeded input;
// the seed picks the extra crash point of each round.

// crashSpec is a small, complete (unwindowed) LP run of a kernel, sized
// like the harness crash tests, so the recovered output can be checked
// against the kernel's reference with Session.Verify.
func crashSpec(kernel string) harness.Spec {
	s := harness.Spec{Workload: kernel, Variant: harness.VariantLP, Threads: 2}
	switch kernel {
	case "tmm":
		s.N, s.Tile = 64, 16
	case "cholesky":
		s.N = 48
	case "conv2d":
		s.N, s.Tile = 32, 4
	case "gauss":
		s.N = 48
	case "fft":
		s.N = 512
	}
	return s
}

var simKernels = []string{"tmm", "cholesky", "conv2d", "gauss", "fft"}

// crashRecover runs spec to completion, crashes a fresh run at frac of
// its cycles, recovers it and verifies the output. It returns the
// recovery's host time and simulated cycles.
func crashRecover(spec harness.Spec, frac float64) (time.Duration, int64, error) {
	clean := harness.NewSession(spec)
	full := clean.Execute()
	if err := clean.Verify(); err != nil {
		return 0, 0, fmt.Errorf("%s failure-free run: %w", spec.Workload, err)
	}
	s := spec
	s.Sim.CrashCycle = int64(frac * float64(full.Cycles))
	if s.Sim.CrashCycle < 1 {
		s.Sim.CrashCycle = 1
	}
	ses := harness.NewSession(s)
	if r := ses.Execute(); !r.Crashed {
		return 0, 0, fmt.Errorf("%s: no crash at %.2f of the run", spec.Workload, frac)
	}
	ses.Crash()
	t0 := time.Now()
	rr := ses.Recover(sim.Config{})
	d := time.Since(t0)
	if rr.Crashed {
		return 0, 0, fmt.Errorf("%s: recovery crashed", spec.Workload)
	}
	if err := ses.Verify(); err != nil {
		return 0, 0, fmt.Errorf("%s recovered from a crash at %.2f: %w", spec.Workload, frac, err)
	}
	return d, rr.RecoverCyc, nil
}

// simRound is one pass over the matrix.
type simRound struct {
	results []harness.Result
	wall    []float64 // host seconds per spec
	cpu     []float64 // process CPU seconds per spec
	setup   []float64 // NewSession seconds per spec
	recover []float64 // recovery host seconds per kernel (mid-run crash, median of 3)
	recCyc  int64
}

// runMatrixRound simulates every spec, times each, and runs the crash
// checks: every kernel crashed at mid-run (timed as recovery) and one
// seeded crash point.
func runMatrixRound(specs []harness.Spec, seed uint64, round int) (*simRound, error) {
	r := &simRound{}
	for _, spec := range specs {
		runtime.GC() // the previous spec's image is freed before the next is built
		t0 := time.Now()
		ses := harness.NewSession(spec)
		r.setup = append(r.setup, time.Since(t0).Seconds())
		runtime.GC() // set-up garbage is collected outside the timing
		c0, t1 := cpuTime(), time.Now()
		res := ses.Execute()
		r.wall = append(r.wall, time.Since(t1).Seconds())
		r.cpu = append(r.cpu, (cpuTime() - c0).Seconds())
		if res.Crashed {
			return nil, fmt.Errorf("%s/%s crashed without a crash point", spec.Workload, spec.Variant)
		}
		r.results = append(r.results, res)
	}
	// A small recovery takes a few milliseconds, so each kernel's
	// figure is the median of three.
	for _, k := range simKernels {
		var ds []float64
		for i := 0; i < 3; i++ {
			runtime.GC()
			d, cyc, err := crashRecover(crashSpec(k), 0.5)
			if err != nil {
				return nil, err
			}
			ds = append(ds, d.Seconds())
			if i == 0 {
				r.recCyc += cyc
			}
		}
		r.recover = append(r.recover, median(ds))
	}
	u := workloads.SplitMix64(seed ^ uint64(round)*0x9e3779b97f4a7c15)
	k := simKernels[u%uint64(len(simKernels))]
	frac := 0.05 + 0.9*float64(u>>11)/float64(1<<53)
	if _, _, err := crashRecover(crashSpec(k), frac); err != nil {
		return nil, err
	}
	return r, nil
}

// perSpec returns, for each index, the median over rounds of pick(r)[i].
func perSpec(rounds []*simRound, pick func(*simRound) []float64) []float64 {
	n := len(pick(rounds[0]))
	out := make([]float64, n)
	for i := range out {
		var xs []float64
		for _, r := range rounds {
			xs = append(xs, pick(r)[i])
		}
		out[i] = median(xs)
	}
	return out
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// checkMatrix applies the method's properties to one round: on every
// kernel LP writes fewer NVMM lines and takes fewer cycles than EP,
// and every count equals the first round's (the simulation is
// deterministic).
func checkMatrix(specs []harness.Spec, r, first *simRound) []string {
	var bad []string
	byKey := map[string]harness.Result{}
	for i, s := range specs {
		byKey[s.Workload+"/"+string(s.Variant)] = r.results[i]
		if first != nil && r.results[i] != first.results[i] {
			bad = append(bad, fmt.Sprintf("%s/%s: simulated counts differ between identical runs", s.Workload, s.Variant))
		}
	}
	for _, k := range simKernels {
		l, e := byKey[k+"/lp"], byKey[k+"/ep"]
		if l.Writes >= e.Writes || l.Cycles >= e.Cycles {
			bad = append(bad, fmt.Sprintf("%s: LP %d writes / %d cycles not below EP %d / %d", k, l.Writes, l.Cycles, e.Writes, e.Cycles))
		}
	}
	return bad
}

func runSimFig10(ctx context.Context, p params, res *result) error {
	specs := harness.BenchMatrix(harness.Options{})
	budget := p.Seconds
	var rounds []*simRound
	var prof bytes.Buffer
	if p.Trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile() // a no-op once stopped below
	}
	// Whole rounds until the budget of simulated time is spent; a
	// traced run profiles one round.
	spent := 0.0
	for len(rounds) == 0 || (!p.Trace && spent < budget) {
		if err := ctx.Err(); err != nil {
			return err
		}
		r, err := runMatrixRound(specs, p.Seed, len(rounds))
		if err != nil {
			return err
		}
		var first *simRound
		if len(rounds) > 0 {
			first = rounds[0]
		}
		for _, b := range checkMatrix(specs, r, first) {
			fmt.Fprintf(os.Stderr, "lpperf: sim-fig10: %s\n", b)
			res.Correct = false
		}
		rounds = append(rounds, r)
		spent += sum(r.wall)
	}
	if p.Trace {
		pprof.StopCPUProfile()
	}
	// Same spec twice: the cheapest spec again, against the matrix.
	last := len(specs) - 2 // fft/ep
	again := harness.NewSession(specs[last])
	if again.Execute() != rounds[0].results[last] {
		fmt.Fprintf(os.Stderr, "lpperf: sim-fig10: %s/%s counts differ on a second run\n", specs[last].Workload, specs[last].Variant)
		res.Correct = false
	}
	res.Attempted = uint64(len(rounds) * len(specs))
	if p.Trace {
		return reportSimLayers(res, specs, rounds[0], prof.Bytes(), p.Seed)
	}

	// Each spec's figure is its median over rounds; the run's figures
	// are taken over those per-spec medians.
	wall := perSpec(rounds, func(r *simRound) []float64 { return r.wall })
	cpu := perSpec(rounds, func(r *simRound) []float64 { return r.cpu })
	setup := perSpec(rounds, func(r *simRound) []float64 { return r.setup })
	recov := perSpec(rounds, func(r *simRound) []float64 { return r.recover })
	res.set("goodput_ops_s", float64(len(specs))/sum(wall), "ops/s")
	// Spec host times differ twentyfold by kernel, so a median over
	// specs would only say which spec sits in the middle: the typical
	// figure is the mean host time per spec, median over rounds, and
	// the tail is the slowest spec (nearest-rank p95 of 16).
	var perRound []float64
	for _, r := range rounds {
		perRound = append(perRound, sum(r.wall)/float64(len(specs)))
	}
	res.set("lat_p50_us", 1e6*median(perRound), "us")
	res.set("lat_p95_us", 1e6*slices.Max(wall), "us")
	res.set("cpu_us_per_op", 1e6*sum(cpu)/float64(len(specs)), "us")
	res.set("recover_s", sum(recov), "s")
	res.set("setup_s", sum(setup), "s")
	res.set("peak_rss_mb", peakRSSMiB(), "MiB")
	return nil
}

// reportSimLayers writes the simulator's per-layer metrics from one
// profiled round.
func reportSimLayers(res *result, specs []harness.Spec, r *simRound, prof []byte, seed uint64) error {
	var instrs uint64
	var l1, l2m uint64
	cycles := map[harness.Variant]int64{}
	writes := map[harness.Variant]uint64{}
	var fenceEP int64
	for i, s := range specs {
		x := r.results[i]
		instrs += x.Ops.Instrs
		l1 += x.Cache.L1Hits
		l2m += x.Cache.L2Misses
		cycles[s.Variant] += x.Cycles
		writes[s.Variant] += x.Writes
		if s.Variant == harness.VariantEP {
			fenceEP += x.Haz.FenceCycles
		}
	}
	host := sum(r.wall)
	res.set("sim.minstr_s", float64(instrs)/host/1e6, "Minstr/s")
	res.set("sim.host_ns_per_instr", 1e9*host/float64(instrs), "ns")
	res.set("memsim.l1_hits", float64(l1), "count")
	res.set("memsim.l2_misses", float64(l2m), "count")
	for _, v := range []harness.Variant{harness.VariantBase, harness.VariantLP, harness.VariantEP, harness.VariantWAL} {
		res.set("sim.cycles."+string(v), float64(cycles[v]), "cycles")
	}
	res.set("memsim.nvmm_writes.lp", float64(writes[harness.VariantLP]), "lines")
	res.set("memsim.nvmm_writes.ep", float64(writes[harness.VariantEP]), "lines")
	res.set("sim.fence_cycles.ep", float64(fenceEP), "cycles")
	res.set("sim.recover_cycles.lp", float64(r.recCyc), "cycles")
	byPkg, err := cpuByPackage(prof)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, pkg := range []string{"sim", "memsim", "workloads", "runtime"} {
		res.set("sim.host_ms."+pkg, byPkg[pkg]/1e6, "ms")
	}
	measureStoreLayers(res, seed)
	return nil
}
