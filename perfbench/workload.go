package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"fmossim/internal/campaign"
	"fmossim/internal/core"
	"fmossim/internal/distrib"
	"fmossim/internal/fault"
	"fmossim/internal/march"
	"fmossim/internal/netlist"
	"fmossim/internal/ram"
	"fmossim/internal/server"
	"fmossim/internal/switchsim"
)

// defaultSeed is the seed the pinned results of seed-dependent
// workloads were taken at.
const defaultSeed = 1

// config is one benchmark workload. Its inputs are a function of the
// config and the seed alone.
type config struct {
	Name     string
	Circuit  string // "ram256" or "ram64"
	Sequence string // "sequence1" or "sequence2"
	// Faults names the fault universe: "storage-stuck" (stuck-at on
	// every storage node), "structural" (a seeded quarter of the
	// transistor stuck-open/closed universe plus the bit-line shorts and
	// a stuck-closed partner on each short's carrier), or "paper" (the
	// job server's paper fault model, resolved from a JobSpec).
	Faults string
	Trim   bool
	// Cluster runs the campaign through distrib.Run over Shards loopback
	// workers instead of campaign.Run with Shards shards.
	Cluster   bool
	BatchSize int
	Shards    int
	// SeedFree marks a workload whose inputs do not depend on the seed.
	SeedFree bool
	// Pins holds the expected outcome by seed (key 0 for a SeedFree
	// workload). A seed with no pin is checked against a reference run.
	Pins map[int64]outcome
}

var workloads = []config{
	{
		Name: "ram256-seq1-stuck", Circuit: "ram256", Sequence: "sequence1", Faults: "storage-stuck",
		BatchSize: 64, Shards: 2, SeedFree: true,
		Pins: map[int64]outcome{0: {Faults: 1338, Detected: 1338, Work: 85559301, Digest: 0xeaf6934b404ae707}},
	},
	{
		Name: "ram256-seq2-structural-trim", Circuit: "ram256", Sequence: "sequence2", Faults: "structural",
		Trim: true, BatchSize: 64, Shards: 2,
		Pins: map[int64]outcome{defaultSeed: {Faults: 679, Detected: 658, Work: 191466157, Digest: 0xd4cc300242ea62fe}},
	},
	{
		Name: "ram256-seq1-cluster2", Circuit: "ram256", Sequence: "sequence1", Faults: "paper",
		Cluster: true, BatchSize: 32, Shards: 2, SeedFree: true,
		Pins: map[int64]outcome{0: {Faults: 1384, Detected: 1384, Work: 88138965, Digest: 0xbf2aaab09bd849ff}},
	},
}

func lookup(name string) (config, error) {
	for _, c := range workloads {
		if c.Name == name {
			return c, nil
		}
	}
	return config{}, fmt.Errorf("unknown workload %q", name)
}

func (c config) pinned(seed int64) (outcome, bool) {
	if c.SeedFree {
		seed = 0
	}
	o, ok := c.Pins[seed]
	return o, ok
}

// env is a set-up workload: everything the measured calls take.
type env struct {
	cfg     config
	seed    int64
	net     *netlist.Network
	seq     *switchsim.Sequence
	faults  []fault.Fault
	observe []netlist.NodeID
	tab     *switchsim.Tables
	rec     *switchsim.Recording

	// Cluster workloads only.
	spec server.JobSpec
	cl   *cluster
	fp   string // fingerprint the coordinator uploads the recording under
}

// setup builds the workload's circuit, faults, tables and recording,
// and starts the cluster. tr, when non-nil, gets one span per step
// under a "setup" root.
func setup(cfg config, seed int64, tr *Tracer) (*env, error) {
	e := &env{cfg: cfg, seed: seed}
	root := tr.Begin(0, "bench", "setup")
	defer tr.End(root)

	sp := tr.Begin(root, "bench", "build circuit and faults")
	if cfg.Faults == "paper" {
		e.spec = server.JobSpec{Workload: cfg.Circuit, Sequence: cfg.Sequence, FaultModel: "paper"}
		wl, err := server.ResolveSpec(&e.spec)
		if err != nil {
			return nil, err
		}
		e.net, e.seq, e.faults, e.observe = wl.Net, wl.Seq, wl.Faults, wl.Observe
	} else {
		var m *ram.RAM
		switch cfg.Circuit {
		case "ram256":
			m = ram.RAM256()
		case "ram64":
			m = ram.RAM64()
		default:
			return nil, fmt.Errorf("unknown circuit %q", cfg.Circuit)
		}
		e.net, e.observe = m.Net, []netlist.NodeID{m.DataOut}
		if cfg.Sequence == "sequence2" {
			e.seq = march.Sequence2(m)
		} else {
			e.seq = march.Sequence1(m)
		}
		switch cfg.Faults {
		case "storage-stuck":
			e.faults = fault.NodeStuckFaults(m.Net, fault.Options{})
		case "structural":
			ts := fault.TransistorStuckFaults(m.Net, fault.Options{})
			e.faults = fault.Sample(ts, len(ts)/4, rand.New(rand.NewSource(seed)))
			// Each short sits next to its carrier's stuck-closed fault, so
			// the equivalent pair shares a batch and can collapse.
			for _, f := range fault.BridgeFaults(m.BitlineShorts) {
				e.faults = append(e.faults, f, fault.Fault{Kind: fault.TransStuckClosed, Trans: f.Trans})
			}
		default:
			return nil, fmt.Errorf("unknown fault universe %q", cfg.Faults)
		}
	}
	tr.End(sp)

	sp = tr.Begin(root, "switchsim", "switchsim.NewTables")
	e.tab = switchsim.NewTables(e.net)
	tr.End(sp)

	sp = tr.Begin(root, "core", "core.Record")
	e.rec = core.Record(e.net, e.seq, core.Options{})
	tr.End(sp)

	if cfg.Cluster {
		sp = tr.Begin(root, "server", "start workers")
		e.cl = startCluster(cfg.Shards)
		tr.End(sp)
	}
	return e, nil
}

// close stops the cluster, if any.
func (e *env) close() {
	if e.cl != nil {
		e.cl.Close()
	}
}

// setupMedian sets the workload up n times and keeps the last set-up;
// it returns the median set-up time in seconds.
func setupMedian(cfg config, seed int64, n int) (*env, float64, error) {
	var times []float64
	var e *env
	for i := 0; i < n; i++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		start := time.Now()
		var err error
		if e, err = setup(cfg, seed, nil); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return e, median(times), nil
}

func (e *env) simOptions() core.Options {
	return core.Options{Observe: e.observe, Workers: 1, Trim: e.cfg.Trim}
}

// hooks observe one traced call of the layer under test.
type hooks struct {
	progress func(campaign.ProgressEvent)
	client   *wireStats
	server   *serverStats
}

// prepare readies the workload for the next measured call, outside the
// timed window. A cluster's workers are reset; the recording's
// fingerprint, which distrib.Run uploads it under, is computed once.
func (e *env) prepare() error {
	runtime.GC()
	if e.cl == nil {
		return nil
	}
	if e.fp == "" {
		var buf bytes.Buffer
		if err := e.rec.Encode(&buf); err != nil {
			return fmt.Errorf("encoding recording: %w", err)
		}
		e.fp = switchsim.FingerprintBytes(buf.Bytes())
	}
	return e.cl.reset(e.fp)
}

// call makes one call into the layer under test: campaign.Run, or
// distrib.Run for a cluster workload. h is nil for an untraced call.
func (e *env) call(ctx context.Context, h *hooks) (*campaign.Result, error) {
	if e.cfg.Cluster {
		var client *wireStats
		if h != nil {
			client = h.client
			e.cl.observe(h.server)
			defer e.cl.observe(nil)
		}
		return distrib.Run(ctx, e.spec, distrib.Options{
			Workers:    e.cl.urls,
			InFlight:   1,
			BatchSize:  e.cfg.BatchSize,
			SimWorkers: 1,
			Recording:  e.rec,
			Client:     e.cl.client(client),
		})
	}
	var progress func(campaign.ProgressEvent)
	if h != nil {
		progress = h.progress
	}
	return e.campaign(ctx, progress)
}

// campaign runs the workload's faults through single-process
// campaign.Run with the workload's batching.
func (e *env) campaign(ctx context.Context, progress func(campaign.ProgressEvent)) (*campaign.Result, error) {
	return campaign.Run(ctx, e.net, e.faults, e.seq, campaign.Options{
		Sim:       e.simOptions(),
		BatchSize: e.cfg.BatchSize,
		Shards:    e.cfg.Shards,
		Recording: e.rec,
		Tables:    e.tab,
		Progress:  progress,
	})
}

// reference computes the expected outcome by another path: for a
// cluster workload the single-process campaign.Run of the same spec and
// batch size, otherwise the monolithic core.Simulator (live good
// circuit, one batch, no trimming).
func (e *env) reference(ctx context.Context) (outcome, error) {
	if e.cfg.Cluster {
		res, err := e.campaign(ctx, nil)
		if err != nil {
			return outcome{}, err
		}
		return summarize(res), nil
	}
	sim, err := core.New(e.net, e.faults, core.Options{Observe: e.observe, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		return outcome{}, err
	}
	return summarizeSim(sim, sim.Run(e.seq)), nil
}
