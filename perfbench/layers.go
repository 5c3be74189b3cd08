package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fmossim/internal/campaign"
	"fmossim/internal/core"
	"fmossim/internal/switchsim"
)

// tracedRun measures the per-layer metrics: untraced calls for the
// tracing-overhead baseline, one traced call of the layer under test,
// then each lower layer on its own through its public functions.
func tracedRun(ctx context.Context, cfg config, seed int64, seconds float64, traceDir string) (*report, error) {
	tr := newTracer(fmt.Sprintf("%s-seed%d", cfg.Name, seed))
	e, err := setup(cfg, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer e.close()
	m := map[string]float64{}
	m["switchsim.tables_s"] = tr.DurationOf("switchsim.NewTables")
	m["core.record_s"] = tr.DurationOf("core.Record")

	warm, runs := e.measure(ctx, seconds)
	tc, err := e.tracedCall(ctx, tr, m)
	if err != nil {
		return nil, err
	}
	ladder := e.ladder(ctx, tr, m)
	if err := e.kernel(tr, m); err != nil {
		return nil, err
	}

	// The cluster's reference is the single-process campaign of the same
	// spec, timed here as the denominator of distrib.overhead_ratio.
	var ref *outcome
	if cfg.Cluster {
		events := 0
		sp := tr.Begin(0, "campaign", "campaign.Run single-process")
		res, err := e.campaign(ctx, func(campaign.ProgressEvent) { events++ })
		tr.End(sp)
		if err != nil {
			return nil, fmt.Errorf("single-process campaign: %w", err)
		}
		o := summarize(res)
		ref = &o
		m["campaign.run_s"] = tr.Duration(sp)
		m["campaign.progress_events"] = float64(events)
		m["distrib.overhead_ratio"] = ratio(m["distrib.run_s"], m["campaign.run_s"])
		m["server.job_overhead_s"] = m["server.stream_s"] - m["core.batch_s"]
	}
	m["campaign.shard_eff"] = ratio(m["core.batch_s"], float64(cfg.Shards)*m["campaign.run_s"])

	g, err := e.newGate(ctx, ref)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	tally(rep, g, warm)
	var walls []float64
	for _, s := range tally(rep, g, runs...) {
		walls = append(walls, s.wall)
		rep.Outcome = s.got.String()
	}
	tally(rep, g, tc, ladder)
	// The ladder measured the work the untraced calls did only if its
	// merge reproduces their outcome.
	if warm.err == nil && ladder.err == nil && ladder.got != warm.got {
		rep.Attempted++
		rep.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: ladder merge %v differs from campaign %v\n", ladder.got, warm.got)
	}
	rep.Correct = rep.Failed == 0

	m["bench.untraced_wall_s"] = median(walls)
	m["bench.traced_wall_s"] = tc.wall
	m["bench.trace_overhead_frac"] = ratio(tc.wall, m["bench.untraced_wall_s"]) - 1
	m["bench.spans"] = float64(tr.Count())
	if traceDir != "" {
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", cfg.Name, seed))
		if err := tr.WriteFile(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	rep.fill(perLayer, m)
	return rep, nil
}

// tracedCall makes one traced call of the layer under test and records
// the counts taken at its boundaries and its per-layer self times.
func (e *env) tracedCall(ctx context.Context, tr *Tracer, m map[string]float64) (sample, error) {
	if err := e.prepare(); err != nil {
		return sample{}, err
	}
	h := &hooks{}
	var root int
	events := 0
	if e.cfg.Cluster {
		root = tr.Begin(0, "distrib", "distrib.Run")
		h.client = &wireStats{tr: tr, parent: root, start: time.Now()}
		h.server = &serverStats{tr: tr}
	} else {
		root = tr.Begin(0, "campaign", "campaign.Run")
		// Progress events are delivered one at a time, so the callback
		// needs no lock. A batch's span runs from its first setting's
		// event to its completion event.
		first := map[int]time.Time{}
		h.progress = func(ev campaign.ProgressEvent) {
			now := time.Now()
			events++
			if _, ok := first[ev.Batch]; !ok {
				first[ev.Batch] = now
			}
			if ev.BatchDone {
				tr.Add(root, "core", fmt.Sprintf("batch %d", ev.Batch), first[ev.Batch], now)
			}
		}
	}
	res, err := e.call(ctx, h)
	tr.End(root)
	s := sample{wall: tr.Duration(root), err: err}
	if err != nil {
		return s, nil
	}
	s.got = summarize(res)

	self := tr.SelfTimes(root)
	sum := 0.0
	for layer, v := range self {
		m[layer+".self_s"] = v
		sum += v
	}
	m["bench.self_sum_frac"] = ratio(sum, s.wall)
	if !e.cfg.Cluster {
		m["campaign.run_s"] = s.wall
		m["campaign.progress_events"] = float64(events)
		return s, nil
	}
	// Handlers and response bodies may finish on other goroutines just
	// before the run returns; the locks order their last updates.
	c, sv := h.client, h.server
	c.mu.Lock()
	defer c.mu.Unlock()
	sv.mu.Lock()
	defer sv.mu.Unlock()
	m["distrib.run_s"] = s.wall
	m["distrib.shards"] = float64(res.Batches)
	m["distrib.dispatches"] = float64(c.dispatches)
	m["distrib.retries"] = float64(c.dispatches - res.Batches)
	m["distrib.rx_mb"] = float64(c.rxB) / 1e6
	m["distrib.first_dispatch_s"] = c.firstDispatch.Seconds()
	m["server.requests"] = float64(sv.requests)
	m["server.rejected"] = float64(sv.rejected)
	m["server.upload_s"] = sv.uploadS
	m["server.upload_mb"] = float64(sv.uploadB) / 1e6
	m["server.submit_s"] = sv.submitS
	m["server.stream_s"] = sv.streamS
	m["server.stream_mb"] = float64(sv.streamB) / 1e6
	m["server.worker_busy_frac"] = ratio(sv.streamS, float64(len(e.cl.urls))*s.wall)
	return s, nil
}

// ladder replays the workload's batch partition serially, one
// core.RunBatch per batch (NewFaultBatch + RunRecording when trimming,
// so TrimStats can be read), and merges the batches with
// campaign.Merge. Its sample's outcome is the merged result's.
func (e *env) ladder(ctx context.Context, tr *Tracer, m map[string]float64) sample {
	opts := e.simOptions()
	var active, replayed, fallbacks, adopted, solved int64
	opts.OnObserve = func(p core.BatchProgress) {
		active += int64(p.ActiveCircuits)
		replayed += int64(p.LanesReplayed)
		fallbacks += int64(p.ScalarFallbacks)
		adopted += p.AdoptedVics
		solved += p.SolvedVics
	}
	var trim core.TrimStats
	var units int64
	var results []*core.BatchResult
	nf, bs := len(e.faults), e.cfg.BatchSize

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	root := tr.Begin(0, "core", "core ladder")
	batchS := 0.0
	for lo := 0; lo < nf; lo += bs {
		fs := e.faults[lo:min(lo+bs, nf)]
		sp := tr.Begin(root, "core", fmt.Sprintf("core.RunBatch [%d,%d)", lo, lo+len(fs)))
		var br *core.BatchResult
		var err error
		if e.cfg.Trim {
			var b *core.FaultBatch
			if b, err = core.NewFaultBatch(e.tab, fs, opts); err == nil {
				br, err = b.RunRecording(ctx, e.rec, e.seq)
				ts := b.TrimStats()
				trim.ClassCandidates += ts.ClassCandidates
				trim.LanesFreed += ts.LanesFreed
				trim.Memo.Add(ts.Memo)
			}
		} else {
			br, err = core.RunBatch(ctx, e.tab, fs, e.rec, e.seq, opts)
		}
		tr.End(sp)
		if err != nil {
			tr.End(root)
			return sample{err: fmt.Errorf("ladder batch at %d: %w", lo, err)}
		}
		batchS += tr.Duration(sp)
		for _, p := range br.PerPattern {
			units += p.FaultWork
		}
		results = append(results, br)
	}
	tr.End(root)
	runtime.ReadMemStats(&ms1)

	sp := tr.Begin(0, "campaign", "campaign.Merge")
	merged := campaign.Merge(e.rec, e.seq, nf, bs, results)
	tr.End(sp)

	m["core.batch_s"] = batchS
	m["core.fault_units"] = float64(units)
	m["core.ns_per_fault_unit"] = ratio(batchS*1e9, float64(units))
	m["core.active_circuits"] = float64(active)
	m["core.lanes_replayed"] = float64(replayed)
	m["core.scalar_fallbacks"] = float64(fallbacks)
	m["core.indexed_frac"] = ratio(float64(replayed), float64(replayed+fallbacks))
	m["core.adopted_vics"] = float64(adopted)
	m["core.solved_vics"] = float64(solved)
	m["core.adopt_frac"] = ratio(float64(adopted), float64(adopted+solved))
	m["core.memo_hits"] = float64(trim.Memo.Hits)
	m["core.memo_hit_frac"] = ratio(float64(trim.Memo.Hits), float64(trim.Memo.Hits+trim.Memo.Misses))
	m["core.memo_saved_units"] = float64(trim.Memo.SavedUnits)
	m["core.trim_lanes_freed"] = float64(trim.LanesFreed)
	m["core.alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	m["campaign.merge_s"] = tr.Duration(sp)
	return sample{got: summarize(merged)}
}

// kernel times the switchsim layer on its own: one good-circuit
// simulation of the sequence, and one encode and decode of the
// recording.
func (e *env) kernel(tr *Tracer, m map[string]float64) error {
	sim := switchsim.NewSimulator(e.net)
	sp := tr.Begin(0, "switchsim", "switchsim.Simulator.RunSequence")
	sim.RunSequence(e.seq)
	tr.End(sp)
	m["switchsim.good_settle_s"] = tr.Duration(sp)
	m["switchsim.good_ns_per_unit"] = ratio(tr.Duration(sp)*1e9, float64(e.rec.GoodWork()))

	var buf bytes.Buffer
	sp = tr.Begin(0, "switchsim", "switchsim.Recording.Encode")
	err := e.rec.Encode(&buf)
	tr.End(sp)
	if err != nil {
		return fmt.Errorf("encoding recording: %w", err)
	}
	m["switchsim.encode_s"] = tr.Duration(sp)
	m["switchsim.recording_mb"] = float64(buf.Len()) / 1e6
	sp = tr.Begin(0, "switchsim", "switchsim.DecodeRecording")
	_, err = switchsim.DecodeRecording(&buf)
	tr.End(sp)
	if err != nil {
		return fmt.Errorf("decoding recording: %w", err)
	}
	m["switchsim.decode_s"] = tr.Duration(sp)
	return nil
}
