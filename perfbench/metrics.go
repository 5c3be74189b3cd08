package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"syscall"
)

type metricDef struct{ Name, Unit string }

// endToEnd are the metrics an untraced run reports (see BENCHMARK.json
// for their bounds). MB is 10^6 bytes throughout.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"faults_per_s", "1/s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports. A workload that never
// enters a layer reports that layer's metrics as 0.
var perLayer = []metricDef{
	{"switchsim.tables_s", "s"},
	{"switchsim.good_settle_s", "s"},
	{"switchsim.good_ns_per_unit", "ns"},
	{"switchsim.encode_s", "s"},
	{"switchsim.decode_s", "s"},
	{"switchsim.recording_mb", "MB"},

	{"core.record_s", "s"},
	{"core.batch_s", "s"},
	{"core.fault_units", "count"},
	{"core.ns_per_fault_unit", "ns"},
	{"core.active_circuits", "count"},
	{"core.lanes_replayed", "count"},
	{"core.scalar_fallbacks", "count"},
	{"core.indexed_frac", "frac"},
	{"core.adopted_vics", "count"},
	{"core.solved_vics", "count"},
	{"core.adopt_frac", "frac"},
	{"core.memo_hits", "count"},
	{"core.memo_hit_frac", "frac"},
	{"core.memo_saved_units", "count"},
	{"core.trim_lanes_freed", "count"},
	{"core.alloc_mb", "MB"},
	{"core.self_s", "s"},

	{"campaign.run_s", "s"},
	{"campaign.merge_s", "s"},
	{"campaign.shard_eff", "frac"},
	{"campaign.progress_events", "count"},
	{"campaign.self_s", "s"},

	{"server.requests", "count"},
	{"server.rejected", "count"},
	{"server.upload_s", "s"},
	{"server.upload_mb", "MB"},
	{"server.submit_s", "s"},
	{"server.stream_s", "s"},
	{"server.stream_mb", "MB"},
	{"server.job_overhead_s", "s"},
	{"server.worker_busy_frac", "frac"},
	{"server.self_s", "s"},

	{"distrib.run_s", "s"},
	{"distrib.shards", "count"},
	{"distrib.dispatches", "count"},
	{"distrib.retries", "count"},
	{"distrib.rx_mb", "MB"},
	{"distrib.first_dispatch_s", "s"},
	{"distrib.overhead_ratio", "ratio"},
	{"distrib.self_s", "s"},

	{"bench.untraced_wall_s", "s"},
	{"bench.traced_wall_s", "s"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.self_sum_frac", "frac"},
	{"bench.spans", "count"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Outcome describes the deterministic result the passing runs
	// agreed on.
	Outcome string `json:"-"`
}

// fill sets every metric in defs from values; a metric missing from
// values is reported as 0.
func (r *report) fill(defs []metricDef, values map[string]float64) {
	r.Metrics = map[string]metricValue{}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
}

// write prints one line per metric, then the JSON result as the last
// line.
func (r *report) write(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "outcome: %s\nruns: %d attempted, %d failed\n", r.Outcome, r.Attempted, r.Failed)
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the user plus system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// peakRSSMB is this process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}
