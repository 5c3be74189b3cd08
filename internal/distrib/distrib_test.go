package distrib_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fmossim/internal/campaign"
	"fmossim/internal/core"
	"fmossim/internal/distrib"
	"fmossim/internal/server"
	"fmossim/internal/switchsim"
)

// newWorkerPool starts n independent fmossimd workers (each its own
// Manager over httptest) and returns their base URLs plus the servers for
// mid-run manipulation.
func newWorkerPool(t *testing.T, n int, cfg server.Config) ([]string, []*httptest.Server) {
	t.Helper()
	if cfg.StreamInterval == 0 {
		cfg.StreamInterval = 2 * time.Millisecond
	}
	urls := make([]string, n)
	servers := make([]*httptest.Server, n)
	for i := 0; i < n; i++ {
		mgr := server.NewManager(cfg)
		ts := httptest.NewServer(mgr.Handler())
		t.Cleanup(func() {
			ts.Close()
			mgr.Close()
		})
		urls[i] = ts.URL
		servers[i] = ts
	}
	return urls, servers
}

// ram256Spec is the distributed equivalence workload: the paper's big
// circuit, sampled and truncated to test size exactly as in the server
// suite.
func ram256Spec() server.JobSpec {
	return server.JobSpec{
		Workload:    "ram256",
		Sequence:    "sequence1",
		MaxPatterns: 60,
		FaultModel:  "paper",
		SampleEvery: 8,
	}
}

// resolveAndRecord resolves the spec locally and records the good
// trajectory once; passing the same Recording to both the monolithic
// baseline and the coordinator makes even the good-side wall-clock
// figures identical, so only fault-side NS fields need masking.
func resolveAndRecord(t *testing.T, spec server.JobSpec) (*server.Workload, *switchsim.Recording) {
	t.Helper()
	wl, err := server.ResolveSpec(&spec)
	if err != nil {
		t.Fatal(err)
	}
	return wl, core.Record(wl.Net, wl.Seq, core.Options{})
}

func monolithic(t *testing.T, wl *server.Workload, rec *switchsim.Recording, batchSize int) *campaign.Result {
	t.Helper()
	res, err := campaign.Run(context.Background(), wl.Net, wl.Faults, wl.Seq, campaign.Options{
		Sim:       core.Options{Observe: wl.Observe},
		BatchSize: batchSize,
		Recording: rec,
		Tables:    wl.Tables,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertIdentical checks the distributed result against the monolithic
// one on every deterministic field: merged aggregates, per-pattern
// statistics (fault-side wall clock masked — it is measured, not
// derived), and the full per-fault outcome table including divergence
// records.
func assertIdentical(t *testing.T, got, want *campaign.Result) {
	t.Helper()
	if got.Run.Detected != want.Run.Detected || got.Run.HardDetected != want.Run.HardDetected ||
		got.Run.Oscillated != want.Run.Oscillated || got.Run.NumFaults != want.Run.NumFaults {
		t.Fatalf("aggregates: got %d/%d/%d of %d, want %d/%d/%d of %d",
			got.Run.Detected, got.Run.HardDetected, got.Run.Oscillated, got.Run.NumFaults,
			want.Run.Detected, want.Run.HardDetected, want.Run.Oscillated, want.Run.NumFaults)
	}
	if got.Run.GoodWork != want.Run.GoodWork || got.Run.FaultWork != want.Run.FaultWork {
		t.Fatalf("work: got good %d faulty %d, want %d %d",
			got.Run.GoodWork, got.Run.FaultWork, want.Run.GoodWork, want.Run.FaultWork)
	}
	if len(got.Run.PerPattern) != len(want.Run.PerPattern) {
		t.Fatalf("pattern count %d, want %d", len(got.Run.PerPattern), len(want.Run.PerPattern))
	}
	for pi := range want.Run.PerPattern {
		g, w := got.Run.PerPattern[pi], want.Run.PerPattern[pi]
		g.FaultNS, w.FaultNS = 0, 0
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("pattern %d stats: got %+v, want %+v", pi, g, w)
		}
	}
	if len(got.PerFault) != len(want.PerFault) {
		t.Fatalf("per-fault rows %d, want %d", len(got.PerFault), len(want.PerFault))
	}
	for fi := range want.PerFault {
		if !reflect.DeepEqual(got.PerFault[fi], want.PerFault[fi]) {
			t.Fatalf("fault %d: got %+v, want %+v", fi, got.PerFault[fi], want.PerFault[fi])
		}
	}
}

// TestDistributedMatchesMonolithic: a RAM256 campaign over three workers
// merges bit-identically to campaign.Run on one machine, and the merged
// progress stream is monotonic.
func TestDistributedMatchesMonolithic(t *testing.T) {
	spec := ram256Spec()
	wl, rec := resolveAndRecord(t, spec)
	want := monolithic(t, wl, rec, 32)

	urls, _ := newWorkerPool(t, 3, server.Config{MaxJobs: 2})
	var mu sync.Mutex
	lastDetected := -1
	monotonic := true
	got, err := distrib.Run(context.Background(), spec, distrib.Options{
		Workers:   urls,
		BatchSize: 32,
		Recording: rec,
		Progress: func(ev campaign.ProgressEvent) {
			mu.Lock()
			if ev.Detected < lastDetected {
				monotonic = false
			}
			lastDetected = ev.Detected
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !monotonic {
		t.Error("merged Detected counter regressed across progress events")
	}
	if lastDetected != want.Run.Detected {
		t.Errorf("final streamed detected %d, want %d", lastDetected, want.Run.Detected)
	}
	if got.BatchesRun != got.Batches || got.BatchesSkipped != 0 {
		t.Errorf("batches: %d run, %d skipped of %d", got.BatchesRun, got.BatchesSkipped, got.Batches)
	}
	assertIdentical(t, got, want)
}

// TestWorkerKilledMidRun: killing one of three workers mid-campaign
// requeues its shards onto the survivors and the merged result is still
// bit-identical to the monolithic baseline.
func TestWorkerKilledMidRun(t *testing.T) {
	spec := ram256Spec()
	wl, rec := resolveAndRecord(t, spec)
	want := monolithic(t, wl, rec, 16) // 16 → more shards, so the kill lands mid-queue

	urls, servers := newWorkerPool(t, 3, server.Config{MaxJobs: 2})
	var kill sync.Once
	got, err := distrib.Run(context.Background(), spec, distrib.Options{
		Workers:   urls,
		BatchSize: 16,
		Recording: rec,
		Logf:      t.Logf,
		Progress: func(ev campaign.ProgressEvent) {
			// First sign of simulation progress: take worker 0 down hard
			// (in-flight streams break, later dials are refused).
			kill.Do(func() {
				go func() {
					servers[0].CloseClientConnections()
					servers[0].Close()
				}()
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.BatchesRun != got.Batches {
		t.Errorf("batches: %d run of %d", got.BatchesRun, got.Batches)
	}
	assertIdentical(t, got, want)
}

// TestCoverageTargetStopsEarly: a cluster-wide coverage target stops
// dispatch, cancels outstanding shards, and reports the rest skipped with
// the target actually met.
func TestCoverageTargetStopsEarly(t *testing.T) {
	spec := server.JobSpec{
		Workload:       "ram64",
		Sequence:       "sequence1",
		FaultModel:     "paper",
		CoverageTarget: 0.25,
	}
	urls, _ := newWorkerPool(t, 2, server.Config{MaxJobs: 2})
	got, err := distrib.Run(context.Background(), spec, distrib.Options{
		Workers:   urls,
		BatchSize: 24,
		InFlight:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.Coverage() < 0.25 {
		t.Fatalf("coverage %v below target", got.Coverage())
	}
	if got.BatchesRun+got.BatchesSkipped != got.Batches {
		t.Fatalf("batch accounting: %d run + %d skipped != %d",
			got.BatchesRun, got.BatchesSkipped, got.Batches)
	}
	skipped := 0
	for _, o := range got.PerFault {
		if o.Skipped {
			skipped++
		}
	}
	if got.BatchesSkipped > 0 && skipped == 0 {
		t.Errorf("%d batches skipped but no fault marked skipped", got.BatchesSkipped)
	}
}

// TestCancelPropagates: cancelling the coordinator context cancels the
// outstanding worker jobs (none left running) and returns the context
// error.
func TestCancelPropagates(t *testing.T) {
	spec := server.JobSpec{Workload: "ram256", Sequence: "sequence1", FaultModel: "paper"}
	urls, _ := newWorkerPool(t, 2, server.Config{MaxJobs: 1})

	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	res, err := distrib.Run(ctx, spec, distrib.Options{
		Workers:   urls,
		BatchSize: 64,
		Progress: func(campaign.ProgressEvent) {
			once.Do(cancel)
		},
	})
	if err == nil || res != nil {
		t.Fatalf("cancelled run returned (%v, %v)", res, err)
	}
	if ctx.Err() == nil {
		t.Fatal("context not cancelled")
	}
}

// TestRunValidation: misconfigurations fail fast.
func TestRunValidation(t *testing.T) {
	if _, err := distrib.Run(context.Background(), ram256Spec(), distrib.Options{}); err == nil {
		t.Error("no workers: want error")
	}
	shard := ram256Spec()
	shard.ShardLo, shard.ShardHi = 0, 8
	if _, err := distrib.Run(context.Background(), shard, distrib.Options{Workers: []string{"http://x"}}); err == nil {
		t.Error("shard spec: want error")
	}
	bad := server.JobSpec{Workload: "ram1024"}
	if _, err := distrib.Run(context.Background(), bad, distrib.Options{Workers: []string{"http://x"}}); err == nil {
		t.Error("bad workload: want error")
	}
}

// TestWorkerKilledMidRunTrimmed: the kill-a-worker scenario with
// redundancy trimming on every shard — requeued shards re-run trimmed on
// the survivors and the merge is still bit-identical to the untrimmed
// monolithic baseline.
func TestWorkerKilledMidRunTrimmed(t *testing.T) {
	spec := ram256Spec()
	wl, rec := resolveAndRecord(t, spec)
	want := monolithic(t, wl, rec, 16)

	spec.Trim = true
	urls, servers := newWorkerPool(t, 3, server.Config{MaxJobs: 2})
	var kill sync.Once
	got, err := distrib.Run(context.Background(), spec, distrib.Options{
		Workers:   urls,
		BatchSize: 16,
		Recording: rec,
		Logf:      t.Logf,
		Progress: func(ev campaign.ProgressEvent) {
			kill.Do(func() {
				go func() {
					servers[0].CloseClientConnections()
					servers[0].Close()
				}()
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.BatchesRun != got.Batches {
		t.Errorf("batches: %d run of %d", got.BatchesRun, got.Batches)
	}
	assertIdentical(t, got, want)
}

// TestEarlyStopDoubleCancelNoLeak: the coverage-target early stop fires
// the coordinator's internal cancel while the caller's context is
// cancelled at the same moment (double cancel), with shards still being
// dispatched. The run must return the early-stopped result (the target
// was met before the caller's cancel), every outstanding worker job must
// be cancelled, and no coordinator goroutine may outlive Run.
func TestEarlyStopDoubleCancelNoLeak(t *testing.T) {
	spec := server.JobSpec{
		Workload:       "ram64",
		Sequence:       "sequence1",
		FaultModel:     "paper",
		CoverageTarget: 0.2,
		Trim:           true,
	}
	urls, _ := newWorkerPool(t, 2, server.Config{MaxJobs: 2})

	// Baseline after the worker pool is up: what must remain is the test
	// plus the pool's own idle machinery, not anything Run spawned. The
	// dedicated client lets the test drop its keep-alive connections
	// afterwards (each idle connection pins a server-side goroutine).
	before := runtime.NumGoroutine()
	client := &http.Client{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	got, err := distrib.Run(ctx, spec, distrib.Options{
		Workers:   urls,
		BatchSize: 16, // many small shards: the stop fires mid-dispatch
		InFlight:  2,
		Client:    client,
		Progress: func(ev campaign.ProgressEvent) {
			// Race the caller's cancel against the internal early stop.
			if ev.Coverage() >= 0.2 {
				once.Do(cancel)
			}
		},
	})
	if err != nil {
		t.Fatalf("double-cancelled early stop returned error: %v", err)
	}
	if got.Coverage() < 0.2 {
		t.Fatalf("coverage %v below target", got.Coverage())
	}
	if got.BatchesRun+got.BatchesSkipped != got.Batches {
		t.Fatalf("batch accounting: %d run + %d skipped != %d",
			got.BatchesRun, got.BatchesSkipped, got.Batches)
	}

	// Goroutine count must settle back: the slot pool, streams, the
	// workers' own job goroutines, and (after dropping the client's
	// keep-alive connections) the per-connection server goroutines all
	// wind down. Retry while they drain.
	client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, after, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// mangleWriter rewrites the batch payload of a stream's result line
// before it reaches the coordinator, as long as the worker's budget of
// mangled results lasts; every other line passes unchanged. The server
// writes each NDJSON line in one Write call.
type mangleWriter struct {
	http.ResponseWriter
	mangle func(payload []byte) []byte
	budget *atomic.Int64
}

func (m *mangleWriter) Write(p []byte) (int, error) {
	var line map[string]json.RawMessage
	if json.Unmarshal(p, &line) != nil || string(line["type"]) != `"result"` ||
		m.budget.Add(-1) < 0 {
		return m.ResponseWriter.Write(p)
	}
	var res map[string]json.RawMessage
	var payload []byte
	if err := json.Unmarshal(line["result"], &res); err != nil {
		return 0, err
	}
	if err := json.Unmarshal(res["batch"], &payload); err != nil {
		return 0, err
	}
	res["batch"], _ = json.Marshal(m.mangle(payload))
	line["result"], _ = json.Marshal(res)
	out, _ := json.Marshal(line)
	if _, err := m.ResponseWriter.Write(append(out, '\n')); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (m *mangleWriter) Flush() { m.ResponseWriter.(http.Flusher).Flush() }

// newManglingWorker starts a real fmossimd worker whose first n result
// lines carry a batch payload rewritten by mangle.
func newManglingWorker(t *testing.T, mangle func([]byte) []byte, n int64) string {
	t.Helper()
	mgr := server.NewManager(server.Config{StreamInterval: 2 * time.Millisecond})
	h := mgr.Handler()
	budget := new(atomic.Int64)
	budget.Store(n)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/stream") {
			w = &mangleWriter{ResponseWriter: w, mangle: mangle, budget: budget}
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	return ts.URL
}

// batchManglers damage a shard's batch payload three ways: a foreign
// magic, a truncation, and a well-formed batch one fault short of its
// shard.
var batchManglers = map[string]func([]byte) []byte{
	"foreign-magic": func(p []byte) []byte {
		return append([]byte("FMOSREC2"), p[8:]...)
	},
	"truncated": func(p []byte) []byte { return p[:len(p)/2] },
	"short-batch": func(p []byte) []byte {
		var br core.BatchResult
		if err := br.UnmarshalBinary(p); err != nil {
			panic(err)
		}
		n := br.NumFaults - 1
		br.NumFaults = n
		br.Detected, br.Detections = br.Detected[:n], br.Detections[:n]
		br.Oscillated, br.Records = br.Oscillated[:n], br.Records[:n]
		out, _ := br.MarshalBinary()
		return out
	},
}

// TestCorruptBatchPayloadRetried: a worker whose result lines carry a
// corrupt, foreign or misshapen batch fails each such shard as an
// execution error naming the worker and the job; the shard is retried
// and the merged result is still bit-identical to the monolithic
// baseline. The worker mangles MaxAttempts-1 results, so no shard can
// exhaust its attempts however the retries are scheduled.
func TestCorruptBatchPayloadRetried(t *testing.T) {
	spec := ram256Spec()
	wl, rec := resolveAndRecord(t, spec)
	want := monolithic(t, wl, rec, 32)
	for name, mangle := range batchManglers {
		t.Run(name, func(t *testing.T) {
			bad := newManglingWorker(t, mangle, 2)
			good, _ := newWorkerPool(t, 1, server.Config{})
			var mu sync.Mutex
			var failures []string
			got, err := distrib.Run(context.Background(), spec, distrib.Options{
				Workers:     []string{bad, good[0]},
				BatchSize:   32,
				InFlight:    1,
				MaxAttempts: 3,
				Recording:   rec,
				Logf: func(format string, args ...any) {
					msg := fmt.Sprintf(format, args...)
					if strings.Contains(msg, "failed on") {
						mu.Lock()
						failures = append(failures, msg)
						mu.Unlock()
					}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, got, want)
			if len(failures) == 0 {
				t.Fatal("no shard failed on the mangling worker")
			}
			t.Logf("%d shard failures on the mangling worker, e.g. %s", len(failures), failures[0])
			named := regexp.MustCompile(`failed on ` + regexp.QuoteMeta(bad) +
				` \(attempt 1\): job job-\d+ on ` + regexp.QuoteMeta(bad) + `: `)
			for _, msg := range failures {
				if !named.MatchString(msg) {
					t.Errorf("failure does not name the worker and the job as an execution error: %s", msg)
				}
			}
		})
	}
}

// TestCorruptBatchPayloadExhaustsAttempts: with only a corrupting worker,
// a shard fails MaxAttempts times and the campaign returns an error
// naming the worker and the job, with no merged result.
func TestCorruptBatchPayloadExhaustsAttempts(t *testing.T) {
	spec := ram256Spec()
	_, rec := resolveAndRecord(t, spec)
	bad := newManglingWorker(t, batchManglers["truncated"], math.MaxInt64)
	got, err := distrib.Run(context.Background(), spec, distrib.Options{
		Workers:     []string{bad},
		BatchSize:   32,
		InFlight:    1,
		MaxAttempts: 2,
		Recording:   rec,
	})
	if err == nil || got != nil {
		t.Fatalf("corrupt payloads merged: result %v, err %v", got, err)
	}
	named := regexp.MustCompile(`shard \d+ failed 2 times, last on ` + regexp.QuoteMeta(bad) +
		`: job job-\d+ on ` + regexp.QuoteMeta(bad) + `: .*decoding batch result`)
	if !named.MatchString(err.Error()) {
		t.Fatalf("error does not name the attempts, worker and job: %v", err)
	}
}
