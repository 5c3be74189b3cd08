package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s
// is the median.
const setupRepeats = 5

func main() {
	workload := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1: one traced run reporting per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "where a traced run writes its spans")
	flag.Parse()

	cfg, err := lookup(*workload)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("-trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx := context.Background()
	var rep *report
	if *trace == 1 {
		rep, err = tracedRun(ctx, cfg, *seed, *seconds, *traceDir)
	} else {
		rep, err = untracedRun(ctx, cfg, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// sample is one measured call of the layer under test.
type sample struct {
	wall, cpu float64
	got       outcome
	err       error
}

// measure makes one warm-up call, then calls the layer under test until
// seconds have passed (at least once). Outcomes are checked later, by
// the caller, so reference runs never overlap the measurement.
func (e *env) measure(ctx context.Context, seconds float64) (warm sample, runs []sample) {
	warm = e.timed(ctx)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(runs) == 0 || time.Now().Before(deadline) {
		s := e.timed(ctx)
		fmt.Fprintf(os.Stderr, "perfbench: %s run %d: wall %.3f s, cpu %.3f s\n", e.cfg.Name, len(runs)+1, s.wall, s.cpu)
		runs = append(runs, s)
	}
	return warm, runs
}

func (e *env) timed(ctx context.Context) sample {
	if err := e.prepare(); err != nil {
		return sample{err: err}
	}
	cpu0 := cpuSeconds()
	start := time.Now()
	res, err := e.call(ctx, nil)
	s := sample{wall: time.Since(start).Seconds(), cpu: cpuSeconds() - cpu0, err: err}
	if err == nil {
		s.got = summarize(res)
	}
	return s
}

// newGate collects what every outcome must equal: the pinned outcome
// for the seed, if any, and a reference outcome computed by another
// path when there is no pin or the workload is a cluster (whose result
// must equal the single-process campaign). ref, when non-nil, is that
// reference, already computed.
func (e *env) newGate(ctx context.Context, ref *outcome) (*gate, error) {
	g := &gate{}
	if o, ok := e.cfg.pinned(e.seed); ok {
		g.want = append(g.want, o)
	}
	if ref == nil && (e.cfg.Cluster || len(g.want) == 0) {
		o, err := e.reference(ctx)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		ref = &o
	}
	if ref != nil {
		g.want = append(g.want, *ref)
	}
	return g, nil
}

// tally counts samples as attempted or failed into rep, logging each
// failure, and returns the samples that passed the gate.
func tally(rep *report, g *gate, samples ...sample) []sample {
	var ok []sample
	for _, s := range samples {
		rep.Attempted++
		err := s.err
		if err == nil {
			err = g.check(s.got)
		}
		if err != nil {
			rep.Failed++
			fmt.Fprintln(os.Stderr, "perfbench: run failed:", err)
			continue
		}
		ok = append(ok, s)
	}
	return ok
}

// untracedRun measures the end-to-end metrics.
func untracedRun(ctx context.Context, cfg config, seed int64, seconds float64) (*report, error) {
	e, setupS, err := setupMedian(cfg, seed, setupRepeats)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer e.close()
	warm, runs := e.measure(ctx, seconds)
	peak := peakRSSMB()
	g, err := e.newGate(ctx, nil)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	tally(rep, g, warm)
	var walls, cpus []float64
	for _, s := range tally(rep, g, runs...) {
		walls = append(walls, s.wall)
		cpus = append(cpus, s.cpu)
		rep.Outcome = s.got.String()
	}
	rep.Correct = rep.Failed == 0
	wall := median(walls)
	rep.fill(endToEnd, map[string]float64{
		"wall_s":       wall,
		"setup_s":      setupS,
		"faults_per_s": ratio(float64(len(e.faults)), wall),
		"cpu_s":        median(cpus),
		"peak_rss_mb":  peak,
	})
	return rep, nil
}
