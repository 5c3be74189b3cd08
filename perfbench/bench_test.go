package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"
)

// tiny is workload c on RAM64, with no pinned outcome: every run is
// checked against the reference path instead.
func tiny(c config) config {
	c.Name += "-ram64"
	c.Circuit = "ram64"
	c.Pins = nil
	return c
}

func checkMetrics(t *testing.T, rep *report, defs []metricDef) {
	t.Helper()
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := rep.Metrics[d.Name]
		if !ok || v.Unit != d.Unit {
			t.Errorf("metric %s: got %+v (present %v), want unit %q", d.Name, v, ok, d.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s = %v", d.Name, v.Value)
		}
	}
}

// TestTinyWorkloads runs a RAM64 configuration of every workload, once
// untraced and once traced, and checks that each passes its gate and
// prints every metric with its unit.
func TestTinyWorkloads(t *testing.T) {
	ctx := context.Background()
	for _, c := range workloads {
		c := tiny(c)
		t.Run(c.Name, func(t *testing.T) {
			rep, err := untracedRun(ctx, c, defaultSeed, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 2 {
				t.Fatalf("untraced: correct %v, %d of %d failed", rep.Correct, rep.Failed, rep.Attempted)
			}
			checkMetrics(t, rep, endToEnd)
			for _, d := range endToEnd {
				if rep.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, rep.Metrics[d.Name].Value)
				}
			}

			rep, err = tracedRun(ctx, c, defaultSeed, 0, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("traced: correct %v, %d of %d failed", rep.Correct, rep.Failed, rep.Attempted)
			}
			checkMetrics(t, rep, perLayer)
			if f := rep.Metrics["bench.self_sum_frac"].Value; math.Abs(f-1) > 1e-6 {
				t.Errorf("self times cover %v of the traced wall, want 1", f)
			}
			layer := "campaign.run_s"
			if c.Cluster {
				layer = "distrib.run_s"
			}
			if rep.Metrics[layer].Value <= 0 || rep.Metrics["core.fault_units"].Value <= 0 {
				t.Errorf("%s = %v, core.fault_units = %v", layer, rep.Metrics[layer].Value, rep.Metrics["core.fault_units"].Value)
			}
		})
	}
}

// TestGateRejectsTamperedPin pins the true outcome of a tiny workload,
// then the same outcome with one digest bit flipped: the first passes,
// the second fails every run.
func TestGateRejectsTamperedPin(t *testing.T) {
	ctx := context.Background()
	c := tiny(workloads[0])
	e, err := setup(c, defaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.reference(ctx)
	e.close()
	if err != nil {
		t.Fatal(err)
	}

	c.Pins = map[int64]outcome{0: want}
	rep, err := untracedRun(ctx, c, defaultSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("true pin: correct %v, %d of %d failed", rep.Correct, rep.Failed, rep.Attempted)
	}

	tampered := want
	tampered.Digest ^= 1
	c.Pins = map[int64]outcome{0: tampered}
	rep, err = untracedRun(ctx, c, defaultSeed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Correct || rep.Failed != rep.Attempted {
		t.Fatalf("tampered pin: correct %v, %d of %d failed", rep.Correct, rep.Failed, rep.Attempted)
	}
}

// TestClusterStopsCleanly checks that closing the loopback cluster after
// a distributed run leaves no goroutine behind.
func TestClusterStopsCleanly(t *testing.T) {
	before := runtime.NumGoroutine()
	c := tiny(workloads[2])
	e, err := setup(c, defaultSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if s := e.timed(context.Background()); s.err != nil {
			t.Fatal(s.err)
		}
	}
	e.close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after close, %d before:\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}

// TestSelfTimes checks the attribution of overlapping spans: two
// overlapping children split their common interval evenly.
func TestSelfTimes(t *testing.T) {
	tr := newTracer("test")
	at := func(ms int) time.Time { return tr.epoch.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.Add(0, "campaign", "root", at(0), at(100))
	tr.Add(root, "core", "a", at(10), at(60))
	b := tr.Add(root, "core", "b", at(40), at(90))
	tr.Add(b, "server", "c", at(50), at(70))
	got := tr.SelfTimes(root)
	// root alone: 0-10, 90-100. a alone: 10-40; a and b: 40-50; a and c:
	// 50-60; c alone under b: 60-70; b alone: 70-90.
	want := map[string]float64{"campaign": 0.020, "core": 0.030 + 0.010 + 0.005 + 0.020, "server": 0.005 + 0.010}
	sum := 0.0
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-9 {
			t.Errorf("%s self %v, want %v", layer, got[layer], w)
		}
		sum += got[layer]
	}
	if math.Abs(sum-0.1) > 1e-9 {
		t.Errorf("self times sum to %v, want 0.1", sum)
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics the benchmark runs and prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloads[i].Name)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the benchmark", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
