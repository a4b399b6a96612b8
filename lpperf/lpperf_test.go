package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lazyp/internal/kvserve"
	"lazyp/internal/lpstore"
)

// listeningSockets returns the inodes of this process's listening TCP
// sockets: /proc/self/fd socket inodes that /proc/net/tcp{,6} lists in
// state 0A (LISTEN).
func listeningSockets(t *testing.T) []string {
	t.Helper()
	listen := map[string]bool{}
	for _, f := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n")[1:] {
			fs := strings.Fields(line)
			if len(fs) > 9 && fs[3] == "0A" {
				listen[fs[9]] = true
			}
		}
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	var out []string
	for _, fd := range fds {
		l, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err != nil || !strings.HasPrefix(l, "socket:[") {
			continue
		}
		if ino := strings.TrimSuffix(strings.TrimPrefix(l, "socket:["), "]"); listen[ino] {
			out = append(out, ino)
		}
	}
	return out
}

// children returns this process's child process ids.
func children(t *testing.T) []string {
	t.Helper()
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		t.Skipf("no /proc/self/task: %v", err)
	}
	var out []string
	for _, task := range tasks {
		b, err := os.ReadFile(filepath.Join("/proc/self/task", task.Name(), "children"))
		if err == nil {
			out = append(out, strings.Fields(string(b))...)
		}
	}
	return out
}

// assertNothingLeft checks that no listener, child process or file is
// left behind under root.
func assertNothingLeft(t *testing.T, root string) {
	t.Helper()
	// Listeners close synchronously, but give the kernel a moment to
	// drop sockets that were closing when the run returned.
	deadline := time.Now().Add(2 * time.Second)
	for len(listeningSockets(t)) > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if l := listeningSockets(t); len(l) > 0 {
		t.Errorf("listening sockets left: %v", l)
	}
	if c := children(t); len(c) > 0 {
		t.Errorf("child processes left: %v", c)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("left behind under the run directory: %s", e.Name())
	}
}

func TestShortRunIsCorrectAndLeavesNothing(t *testing.T) {
	root := t.TempDir()
	if l := listeningSockets(t); len(l) > 0 {
		t.Fatalf("listening sockets before the run: %v", l)
	}
	w, _ := findWorkload("kv-update-closed")
	res, err := runGuarded(w, root, params{Seed: 7, Seconds: 0.5}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
		t.Errorf("correct %v attempted %d failed %d", res.Correct, res.Attempted, res.Failed)
	}
	for name, m := range res.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v, want a positive measurement", name, m.Value)
		}
	}
	assertNothingLeft(t, root)
	checkNames(t, "end_to_end", res)
}

func TestTracedRunReportsLayers(t *testing.T) {
	root := t.TempDir()
	w, _ := findWorkload("kv-update-closed")
	res, err := runGuarded(w, root, params{Seed: 3, Seconds: 1, Trace: true}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("correct %v failed %d", res.Correct, res.Failed)
	}
	for _, name := range []string{"obs.traced_puts", "obs.stage_self_us.fill", "kvserve.ping_rtt_us",
		"client.lag_p99_us", "client.open_put_p50_us", "kvserve.base_goodput_ops_s", "lpstore.put_ns.lp"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want a measurement", name, res.Metrics[name].Value)
		}
	}
	// The stages of each timeline add up to its latency, so the
	// residual is only the sampling error of the traced puts.
	if mean, resid := res.Metrics["obs.put_mean_us"].Value, res.Metrics["obs.residual_us"].Value; resid > mean/2 || -resid > mean/2 {
		t.Errorf("residual %v µs of a %v µs mean put", resid, mean)
	}
	checkNames(t, "per_layer", res)
	assertNothingLeft(t, root)
}

func TestDeadlineTearsDownCluster(t *testing.T) {
	root := t.TempDir()
	w, _ := findWorkload("cluster-routed")
	_, err := runGuarded(w, root, params{Seed: 1, Seconds: 30}, 300*time.Millisecond)
	if err == nil {
		t.Fatal("a run past its deadline returned a result")
	}
	assertNothingLeft(t, root)
}

func TestPanicTearsDown(t *testing.T) {
	root := t.TempDir()
	w := workload{name: "panics", run: func(ctx context.Context, p params, res *result) error {
		srv, _, _, err := startServer(teardownOf(ctx), kvConfig(p, imagePath(p, "x"), lpstore.ModeLP))
		if err != nil {
			return err
		}
		if _, err := kvserve.Dial(srv.Addr()); err != nil {
			return err
		}
		panic("check failed")
	}}
	_, err := runGuarded(w, root, params{Seed: 1, Seconds: 1}, time.Minute)
	if err == nil || !strings.Contains(err.Error(), "check failed") {
		t.Fatalf("err = %v, want the recovered panic", err)
	}
	assertNothingLeft(t, root)
}

func TestFailedCheckTearsDown(t *testing.T) {
	root := t.TempDir()
	errCheck := errors.New("image check failed")
	w := workload{name: "fails", run: func(ctx context.Context, p params, res *result) error {
		if _, _, _, err := startServer(teardownOf(ctx), kvConfig(p, imagePath(p, "x"), lpstore.ModeLP)); err != nil {
			return err
		}
		return errCheck
	}}
	if _, err := runGuarded(w, root, params{Seed: 1, Seconds: 1}, time.Minute); !errors.Is(err, errCheck) {
		t.Fatalf("err = %v, want %v", err, errCheck)
	}
	assertNothingLeft(t, root)
}

// checkNames compares the names a run printed with BENCHMARK.json.
func checkNames(t *testing.T, section string, res *result) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(doc[section], &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(res.Metrics) {
		t.Errorf("%s lists %d metrics, the run printed %d", section, len(ms), len(res.Metrics))
	}
	for _, m := range ms {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s metric %s (%s): printed %+v", section, m.Name, m.Unit, got)
		}
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Workloads []struct{ Name string } }
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(benchWorkloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(doc.Workloads), len(benchWorkloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not runnable", w.Name)
		}
	}
}
