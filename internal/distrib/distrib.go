// Coordinator execution: shard partitioning, the worker-slot pool with
// requeue-on-failure, merged monotonic progress, and the deterministic
// merge. Package documentation lives in doc.go.
package distrib

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"fmossim/internal/campaign"
	"fmossim/internal/core"
	"fmossim/internal/server"
	"fmossim/internal/switchsim"
)

// Options configures a distributed campaign.
type Options struct {
	// Workers lists the fmossimd base URLs the campaign fans out over
	// (e.g. "http://10.0.0.7:8458"). Required.
	Workers []string

	// InFlight bounds the shards dispatched concurrently to one worker.
	// Default 2: one running plus one queued keeps a worker busy across
	// the dispatch round-trip without swamping it.
	InFlight int

	// BatchSize is the number of faults per shard. 0 splits the universe
	// evenly across the worker slots (one shard per slot). A distributed
	// run merges bit-identically to a single-process campaign.Run with
	// the same BatchSize.
	BatchSize int

	// SimWorkers is the per-shard simulator worker count on the remote
	// (JobSpec.Workers). 0 leaves it to the worker's fair-share default.
	SimWorkers int

	// MaxAttempts bounds how many times one shard may be dispatched
	// before the campaign fails. Default 3.
	MaxAttempts int

	// Recording, when non-nil, is a pre-captured good trajectory; when
	// nil, the coordinator records one on entry. Either way it is encoded
	// once and uploaded to each worker by content fingerprint.
	Recording *switchsim.Recording

	// Client is the HTTP client for worker traffic. Default: a client
	// with no overall timeout (streams outlive any fixed deadline);
	// cancellation comes from Run's context.
	Client *http.Client

	// Progress, when non-nil, receives the merged cluster-wide progress
	// view: one event per streamed snapshot or detection group of any
	// shard, with Detected folded monotonically across shards (per-shard
	// maxima, summed under one lock — a stale or re-delivered line never
	// rolls coverage back). NewlyDetected indices are universe indices.
	Progress func(campaign.ProgressEvent)

	// Logf, when non-nil, receives coordinator lifecycle messages
	// (dispatches, retries, worker failures).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.InFlight <= 0 {
		o.InFlight = 2
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// maxTransientRetries bounds 429-and-retry loops within one dispatch
// attempt, and consecutive transport failures before a worker's slots
// give up on it.
const maxTransientRetries = 10

// dispatchError marks a shard failure where the job never started on the
// worker (upload or submission failed): the shard requeues without
// consuming one of its attempts, and the failure counts only toward the
// worker's abandonment threshold.
type dispatchError struct{ err error }

func (e *dispatchError) Error() string { return e.err.Error() }
func (e *dispatchError) Unwrap() error { return e.err }

// shardState tracks one shard through dispatch, failure and requeue.
type shardState struct {
	idx      int
	lo, hi   int
	attempts int
	last     int // worker index of the last failed attempt, -1 initially
	bounced  int // consecutive prefer-a-different-worker requeues
}

// Run executes a distributed fault campaign over the worker pool: one
// recording upload per worker, one shard job per batch, merged with
// campaign.Merge into a result bit-identical to the single-process
// engine. See the package documentation for the execution model.
//
// The spec is a regular (non-shard) JobSpec; its CoverageTarget, when
// set, stops the campaign early cluster-wide: no new shards are
// dispatched and outstanding jobs are cancelled with DELETE, their
// faults reported as skipped — exactly the single-process early-stop
// accounting. Cancelling ctx likewise cancels every outstanding job and
// returns ctx's error.
func Run(ctx context.Context, spec server.JobSpec, opts Options) (*campaign.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("distrib: no workers configured")
	}
	if spec.IsShard() {
		return nil, fmt.Errorf("distrib: spec is already a shard job")
	}

	// Resolve the workload exactly as the workers will, so shard windows
	// computed here index the same faults there.
	wl, err := server.ResolveSpec(&spec)
	if err != nil {
		return nil, err
	}
	nf := len(wl.Faults)

	rec := opts.Recording
	if rec == nil {
		rec = core.Record(wl.Net, wl.Seq, core.Options{})
	}
	if err := rec.Validate(wl.Net, wl.Seq.NumSettings()); err != nil {
		return nil, err
	}
	encoded, fp, err := encodeRecording(rec)
	if err != nil {
		return nil, err
	}

	slots := len(opts.Workers) * opts.InFlight
	batchSize := opts.BatchSize
	if batchSize <= 0 {
		batchSize = (nf + slots - 1) / slots
		if batchSize == 0 {
			batchSize = 1
		}
	}
	nBatches := (nf + batchSize - 1) / batchSize
	var target int64
	if spec.CoverageTarget > 0 && nf > 0 {
		target = int64(math.Ceil(spec.CoverageTarget * float64(nf)))
	}

	// shardSpec is the worker-side template: the workload fields verbatim
	// (so workers resolve the same universe), campaign-level fields
	// stripped (the coordinator owns batching, early stop and merging).
	shardSpec := spec
	shardSpec.BatchSize = 0
	shardSpec.Shards = 0
	shardSpec.CoverageTarget = 0
	shardSpec.IncludePerFault = false
	shardSpec.Workers = opts.SimWorkers
	shardSpec.RecordingFP = fp
	shardSpec.IncludeBatch = true

	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	c := &coordinator{
		opts:      opts,
		spec:      shardSpec,
		seq:       wl.Seq,
		encoded:   encoded,
		fp:        fp,
		nf:        nf,
		nBatches:  nBatches,
		results:   make([]*core.BatchResult, nBatches),
		pending:   make(chan *shardState, nBatches),
		done:      make(chan struct{}),
		perShard:  make([]int, nBatches),
		uploaded:  make([]bool, len(opts.Workers)),
		uploadMu:  make([]sync.Mutex, len(opts.Workers)),
		fails:     make([]int32, len(opts.Workers)),
		target:    target,
		cancelRun: cancelRun,
	}
	c.remaining.Store(int64(nBatches))
	c.aliveSlots.Store(int64(slots))
	// Seed the queue expensive-shards-first (see plan.go): the windows are
	// the plain index-order split, only the dispatch order is planned.
	for _, i := range planShardOrder(rec, wl.Net, wl.Faults, nBatches, batchSize) {
		lo := i * batchSize
		c.pending <- &shardState{idx: i, lo: lo, hi: min(lo+batchSize, nf), last: -1}
	}

	var wg sync.WaitGroup
	for wi := range opts.Workers {
		for s := 0; s < opts.InFlight; s++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				c.slot(runCtx, wi)
			}(wi)
		}
	}
	wg.Wait()

	if err := c.firstErr(); err != nil {
		return nil, err
	}
	completed := 0
	for _, br := range c.results {
		if br != nil {
			completed++
		}
	}
	if ctx.Err() != nil && completed < nBatches && (target == 0 || c.completedDetected.Load() < target) {
		return nil, fmt.Errorf("distrib: cancelled: %w", ctx.Err())
	}
	if completed < nBatches && target == 0 {
		// Slots drained without finishing and without a coverage target:
		// only possible when every worker was abandoned.
		return nil, fmt.Errorf("distrib: %d of %d shards incomplete: all workers unavailable",
			nBatches-completed, nBatches)
	}

	res := campaign.Merge(rec, wl.Seq, nf, batchSize, c.results)
	res.Batches = nBatches
	res.BatchesRun = completed
	res.BatchesSkipped = nBatches - completed
	return res, nil
}

// coordinator is the shared state of one distributed run.
type coordinator struct {
	opts    Options
	spec    server.JobSpec
	seq     *switchsim.Sequence
	encoded []byte
	fp      string

	nf       int
	nBatches int
	target   int64

	results []*core.BatchResult // indexed by shard; written once each
	pending chan *shardState
	done    chan struct{} // closed when remaining hits zero

	remaining         atomic.Int64
	completedDetected atomic.Int64
	aliveSlots        atomic.Int64
	cancelRun         context.CancelFunc

	uploadMu []sync.Mutex // per worker
	uploaded []bool
	fails    []int32 // consecutive transport failures per worker (atomic)

	errMu sync.Mutex
	err   error

	// Merged-progress state: per-shard folded detection maxima and their
	// sum, mutated and delivered under one lock so the cluster-wide
	// Detected counter is monotonic across delivered events.
	progressMu  sync.Mutex
	perShard    []int
	total       int
	batchesDone int
}

func (c *coordinator) fatal(err error) {
	c.errMu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.errMu.Unlock()
	c.cancelRun()
}

func (c *coordinator) firstErr() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.err
}

// progress folds one shard's streamed line into the merged view and
// delivers it. detected is the shard's cumulative count as reported;
// newly lists shard-relative first detections (offset to universe
// indices here).
func (c *coordinator) progress(sh *shardState, detected int, newly []int, pattern, setting, live int, batchDone bool) {
	if c.opts.Progress == nil && !batchDone {
		return
	}
	c.progressMu.Lock()
	defer c.progressMu.Unlock()
	if detected > c.perShard[sh.idx] {
		c.total += detected - c.perShard[sh.idx]
		c.perShard[sh.idx] = detected
	}
	if batchDone {
		c.batchesDone++
	}
	if c.opts.Progress == nil {
		return
	}
	ev := campaign.ProgressEvent{
		Batch: sh.idx, Pattern: pattern, Setting: setting,
		LiveFaults: live, Detected: c.total, NumFaults: c.nf,
		Batches: c.nBatches, BatchesDone: c.batchesDone, BatchDone: batchDone,
	}
	if len(newly) > 0 {
		ev.NewlyDetected = make([]int, len(newly))
		for i, fi := range newly {
			ev.NewlyDetected[i] = sh.lo + fi
		}
	}
	c.opts.Progress(ev)
}

// slot is one worker dispatch slot: it pulls shards from the queue and
// runs them on worker wi until the queue drains, the run is cancelled, or
// the worker is abandoned after repeated transport failures.
func (c *coordinator) slot(ctx context.Context, wi int) {
	defer func() {
		if c.aliveSlots.Add(-1) == 0 && c.remaining.Load() > 0 && ctx.Err() == nil {
			c.fatal(fmt.Errorf("distrib: all workers unavailable with %d shards outstanding",
				c.remaining.Load()))
		}
	}()
	for {
		select {
		case <-ctx.Done():
			return
		case <-c.done:
			return
		case sh := <-c.pending:
			// Prefer a different worker for a retry: the one that just
			// failed this shard is the least likely to complete it. The
			// bounce budget keeps this a preference, not a deadlock — if
			// no other worker picks the shard up (all their slots gone or
			// busy), the last-failed worker runs it anyway and the
			// per-shard attempt bound takes over.
			if sh.last == wi && len(c.opts.Workers) > 1 &&
				sh.bounced < len(c.opts.Workers)*c.opts.InFlight {
				sh.bounced++
				c.pending <- sh
				select {
				case <-time.After(50 * time.Millisecond):
				case <-ctx.Done():
					return
				}
				continue
			}
			sh.bounced = 0
			err := c.runShard(ctx, wi, sh)
			if err == nil {
				atomic.StoreInt32(&c.fails[wi], 0)
				if c.remaining.Add(-1) == 0 {
					close(c.done)
				}
				continue
			}
			if ctx.Err() != nil {
				return
			}
			// A dispatch failure (recording upload or submit never
			// reached the worker) is a strike against the worker, not the
			// shard: a dead worker must not burn a shard's attempt budget
			// while the healthy workers are busy. Execution failures —
			// the job started and then broke or failed — count.
			var de *dispatchError
			if !errors.As(err, &de) {
				sh.attempts++
			}
			sh.last = wi
			c.opts.Logf("distrib: shard %d failed on %s (attempt %d): %v",
				sh.idx, c.opts.Workers[wi], sh.attempts, err)
			if sh.attempts >= c.opts.MaxAttempts {
				c.fatal(fmt.Errorf("distrib: shard %d failed %d times, last on %s: %w",
					sh.idx, sh.attempts, c.opts.Workers[wi], err))
				return
			}
			c.pending <- sh
			if atomic.AddInt32(&c.fails[wi], 1) >= maxTransientRetries {
				c.opts.Logf("distrib: abandoning worker %s after %d consecutive failures",
					c.opts.Workers[wi], maxTransientRetries)
				return
			}
		}
	}
}

// checkBatch rejects a decoded batch whose shape does not fit its shard:
// merging it would drop or misattribute outcomes.
func (c *coordinator) checkBatch(br *core.BatchResult, sh *shardState) error {
	n := sh.hi - sh.lo
	if br.NumFaults != n || len(br.Detected) != n || len(br.Detections) != n ||
		len(br.Oscillated) != n || len(br.Records) != n ||
		len(br.PerSetting) != c.seq.NumSettings() || len(br.PerPattern) != len(c.seq.Patterns) {
		return fmt.Errorf("batch of %d faults, %d settings and %d patterns does not fit shard [%d,%d) of a %d-setting, %d-pattern sequence",
			br.NumFaults, len(br.PerSetting), len(br.PerPattern), sh.lo, sh.hi, c.seq.NumSettings(), len(c.seq.Patterns))
	}
	return nil
}

// runShard executes one shard on one worker: ensure the recording is
// uploaded, submit the job, stream it to a terminal state, and store the
// batch result. Any error leaves the shard unassigned (the caller
// requeues); the outstanding job, if any, is cancelled with DELETE when
// the shard did not complete — which is also how campaign-wide
// cancellation and coverage-target stop reach the workers.
func (c *coordinator) runShard(ctx context.Context, wi int, sh *shardState) (err error) {
	base := c.opts.Workers[wi]
	if err := c.ensureRecording(ctx, wi); err != nil {
		return &dispatchError{fmt.Errorf("uploading recording: %w", err)}
	}

	spec := c.spec
	spec.ShardLo, spec.ShardHi = sh.lo, sh.hi
	jobID, err := c.submit(ctx, base, &spec)
	if err != nil {
		return &dispatchError{err}
	}
	defer func() {
		if err != nil || ctx.Err() != nil {
			c.deleteJob(base, jobID)
		}
	}()

	br, err := c.stream(ctx, base, jobID, sh)
	if err != nil {
		// A worker can lose its stored recording mid-campaign (restart,
		// store eviction under concurrent campaigns) while this
		// coordinator still believes it uploaded. If the recording is
		// definitively gone, clear the flag so the next shard re-uploads,
		// and charge the failure to the worker, not the shard.
		if ctx.Err() == nil && c.recordingGone(base) {
			c.uploadMu[wi].Lock()
			c.uploaded[wi] = false
			c.uploadMu[wi].Unlock()
			return &dispatchError{fmt.Errorf("worker lost recording %s: %w", c.fp[:12], err)}
		}
		return err
	}
	c.results[sh.idx] = br
	c.progress(sh, br.DetectedCount(), nil, 0, 0, 0, true)
	if c.target > 0 && c.completedDetected.Add(int64(br.DetectedCount())) >= c.target {
		// Coverage target reached: stop dispatch and cancel every
		// outstanding shard, cluster-wide. Their faults merge as skipped.
		c.cancelRun()
	}
	return nil
}
