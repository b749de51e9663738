package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweep/store"
	"repro/internal/wifi"
)

// Config parameterises an Engine.
type Config struct {
	// Workers bounds the worker pool (default GOMAXPROCS).
	Workers int
	// ShardPackets is the maximum packets per shard (default 64): the
	// scheduling granularity and the cancellation latency bound.
	ShardPackets int
	// PoolSize is the number of pre-encoded waveforms per (grid, MCS) in
	// the shared pool jobs can opt into (default wifi.DefaultPoolSize).
	PoolSize int
	// PoolSeed seeds the pool's deterministic waveform generation.
	PoolSeed int64
	// Store, when set, is the content-addressed result store the engine
	// checkpoints through: completed points are written as they finish,
	// and at submit every point already present (same plan fingerprint,
	// pool identity and point identity) is restored instead of computed.
	Store *store.Store
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ShardPackets <= 0 {
		c.ShardPackets = 64
	}
	if c.PoolSize <= 0 {
		c.PoolSize = wifi.DefaultPoolSize
	}
	return c
}

// Engine is the sharded sweep service. One engine serves any number of
// concurrent jobs over a single bounded worker pool and owns the shared
// waveform pool. Create with New, submit with Submit, stop with Close.
// The engine keeps no table of its jobs: a job is reachable only through
// its caller's *Job and, while it runs, its queued shards.
type Engine struct {
	cfg  Config
	pool *wifi.WaveformPool

	tasks chan shard
	// ctx is cancelled by Close: it stops the workers and, through each
	// running job's context.AfterFunc hook, cancels the job.
	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup
}

// shard is one schedulable unit: a packet range of one point of one job.
type shard struct {
	job   *Job
	point int
	lo    int
	hi    int
}

// New starts an engine with cfg.Workers workers.
func New(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:   cfg,
		pool:  wifi.NewWaveformPool(cfg.PoolSize, cfg.PoolSeed),
		tasks: make(chan shard),
	}
	e.ctx, e.stop = context.WithCancel(context.Background())
	for w := 0; w < cfg.Workers; w++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Pool returns the engine's shared waveform pool.
func (e *Engine) Pool() *wifi.WaveformPool { return e.pool }

// PoolIdentity returns the pool size and seed the engine keys stored
// results under (post-defaults) — what history recording and store
// lookups outside the engine must use to reproduce its keys.
func (e *Engine) PoolIdentity() (size int, seed int64) {
	return e.cfg.PoolSize, e.cfg.PoolSeed
}

// Close stops the workers and cancels every running job: their Wait
// returns context.Canceled.
func (e *Engine) Close() {
	e.stop()
	e.wg.Wait()
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		select {
		case <-e.ctx.Done():
			return
		case sh := <-e.tasks:
			e.runShard(sh)
		}
	}
}

func (e *Engine) runShard(sh shard) {
	j := sh.job
	ps := j.points[sh.point]
	if j.ctx.Err() != nil {
		j.completeShard(sh.point, nil, 0, j.ctx.Err())
		return
	}
	counts := make([]int, len(ps.plan.Receivers()))
	n, err := ps.plan.RunRange(j.ctx, sh.lo, sh.hi, counts)
	j.completeShard(sh.point, counts, n, err)
}

// Submit validates the spec, plans every point, restores any point the
// configured result store already holds, and schedules the remaining
// shards. The returned job is already running; cancelling ctx cancels it.
func (e *Engine) Submit(ctx context.Context, spec Spec) (*Job, error) {
	return e.submit(ctx, spec, nil)
}

// SubmitPoints is Submit restricted to a subset of the sweep plan's
// points (by plan index, any order, no duplicates): only those points are
// planned and executed, and the job produces per-point tallies but no
// assembled table (a table needs every point). This is the distributed
// worker's entry point — a lease names a point range of the full plan —
// but is usable by any caller that wants one slice of a sweep. Subset
// jobs read and write the result store like full jobs do: points are
// content-addressed, so a slice's tallies are interchangeable with a
// full run's.
func (e *Engine) SubmitPoints(ctx context.Context, spec Spec, points []int) (*Job, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("sweep: no points selected")
	}
	return e.submit(ctx, spec, points)
}

func (e *Engine) submit(ctx context.Context, spec Spec, subset []int) (*Job, error) {
	req, err := spec.Request(e.pool)
	if err != nil {
		return nil, err
	}
	plan, err := experiments.NewSweepPlan(req)
	if err != nil {
		return nil, err
	}
	active := make([]int, 0, len(plan.Points))
	if subset == nil {
		for i := range plan.Points {
			active = append(active, i)
		}
	} else {
		seen := make(map[int]bool, len(subset))
		for _, i := range subset {
			if i < 0 || i >= len(plan.Points) {
				return nil, fmt.Errorf("sweep: point %d outside [0,%d)", i, len(plan.Points))
			}
			if seen[i] {
				return nil, fmt.Errorf("sweep: point %d selected twice", i)
			}
			seen[i] = true
			active = append(active, i)
		}
	}

	jctx, cancel := context.WithCancel(ctx)
	j := &Job{
		Spec:   spec,
		plan:   plan,
		subset: subset != nil,
		active: len(active),
		ctx:    jctx,
		cancel: cancel,
		start:  time.Now(),
		done:   make(chan struct{}),
	}
	j.points = make([]*pointState, len(plan.Points))
	for _, i := range active {
		pp, err := experiments.PlanPSR(plan.Points[i].Cfg)
		if err != nil {
			cancel()
			return nil, fmt.Errorf("sweep: point %d: %w", i, err)
		}
		j.points[i] = &pointState{plan: pp}
		j.totalPackets += int64(pp.Packets())
	}

	// Store restore before any shard runs: any active point whose
	// content-address key is already stored — same plan fingerprint, pool
	// identity and point identity, whichever job (or process life)
	// computed it — is restored instead of executed. The pool identity is
	// part of the key: points drawn from one waveform pool never alias
	// points from another or from the pool-less path.
	if st := e.cfg.Store; st != nil {
		j.store = st
		j.keys = PlanKeys(plan, spec.Pool, e.cfg.PoolSize, e.cfg.PoolSeed)
		// Pin the job's full key set for its lifetime: the MaxBytes GC
		// must never collect a record this job may still restore from or
		// has just written. Released in fail/finalize.
		j.unpin = st.Pin(j.keys...)
		now := time.Now()
		for _, idx := range active {
			ps := j.points[idx]
			t, ok := st.Get(j.keys[idx])
			if !ok {
				store.Misses.Inc()
				continue
			}
			if t.N != ps.plan.Packets() || len(t.OK) != len(ps.plan.Receivers()) {
				// A different fidelity under the same key is impossible
				// (packets and arms feed the point identity); treat a shape
				// mismatch as a miss rather than trusting it.
				store.Misses.Inc()
				continue
			}
			store.Hits.Inc()
			st.Touch(j.keys[idx], now)
			ps.ok = t.OK
			ps.n = t.N
			ps.done = true
			j.restoredPoints++
			j.donePackets.Add(int64(t.N))
			j.donePoints.Add(1)
		}
	}

	if e.ctx.Err() != nil {
		cancel()
		if j.unpin != nil {
			j.unpin()
		}
		return nil, fmt.Errorf("sweep: engine is closed")
	}
	jobsSubmitted.Inc()
	jobsRunning.Add(1)
	// Close cancels the job through this hook. The job releases it when
	// it settles (fail, finalize), so a finished job is not kept
	// reachable by the engine. Registered under j.mu: a hook that fires
	// at once (Close racing this submit) waits in fail until stopClose
	// is set.
	j.mu.Lock()
	j.stopClose = context.AfterFunc(e.ctx, j.Cancel)
	j.mu.Unlock()

	// Decompose incomplete points into shards and count them before
	// feeding: completeShard must know each point's shard total.
	var shards []shard
	for _, i := range active {
		ps := j.points[i]
		if ps.done {
			continue
		}
		pkts := ps.plan.Packets()
		for lo := 0; lo < pkts; lo += e.cfg.ShardPackets {
			hi := lo + e.cfg.ShardPackets
			if hi > pkts {
				hi = pkts
			}
			ps.shardsLeft++
			shards = append(shards, shard{job: j, point: i, lo: lo, hi: hi})
		}
	}
	if len(shards) == 0 {
		j.finalize()
		return j, nil
	}
	go func() {
		for _, sh := range shards {
			select {
			case e.tasks <- sh:
			case <-j.ctx.Done():
				// Cancelled: account the unscheduled shards so the job
				// closes once in-flight ones drain.
				j.completeShard(sh.point, nil, 0, j.ctx.Err())
			case <-e.ctx.Done():
				return
			}
		}
	}()
	return j, nil
}

// pointState accumulates one measurement point's tallies across shards.
type pointState struct {
	plan *experiments.PSRPlan

	mu         sync.Mutex
	ok         []int
	n          int
	shardsLeft int
	done       bool
}

// Job is one submitted sweep. All methods are safe for concurrent use.
type Job struct {
	Spec Spec

	plan   *experiments.SweepPlan
	points []*pointState
	subset bool
	active int // points this job executes (== len(points) unless SubmitPoints)
	ctx    context.Context
	cancel context.CancelFunc
	store  *store.Store
	keys   []store.Key
	unpin  func()
	start  time.Time
	// stopClose releases the engine-Close hook (see submit).
	stopClose func() bool

	totalPackets   int64
	restoredPoints int
	donePackets    atomic.Int64
	donePoints     atomic.Int32

	mu       sync.Mutex
	err      error
	table    *experiments.Table
	results  [][]experiments.PSRPoint
	elapsed  time.Duration
	finished bool
	done     chan struct{}
}

// Result is a completed sweep: the rendered table plus the raw per-point,
// per-arm counts (aligned with the plan's points). Subset jobs
// (SubmitPoints) have a nil Table and nil rows for the points they did
// not run.
type Result struct {
	Table   *experiments.Table
	Points  [][]experiments.PSRPoint
	Elapsed time.Duration
}

// Progress is a snapshot of a job's execution state.
type Progress struct {
	ID             string  `json:"id"` // the coordinator's job id; empty for engine jobs
	Experiment     string  `json:"experiment"`
	State          string  `json:"state"` // "running", "done" or "failed"
	Points         int     `json:"points"`
	DonePoints     int     `json:"done_points"`
	RestoredPoints int     `json:"restored_points,omitempty"`
	Packets        int64   `json:"packets"`
	DonePackets    int64   `json:"done_packets"`
	ElapsedSec     float64 `json:"elapsed_sec"`
	Error          string  `json:"error,omitempty"`
}

// PointEvent is one completed measurement point as a job's event
// stream publishes it (dist.Job.Subscribe and, over SSE, the jobs API):
// the point's plan index and tallies plus the job-level completion
// counters at the moment it finished. Seq numbers a job's events 0,1,…
// in completion order; store-restored points replay first.
type PointEvent struct {
	Seq        int   `json:"seq"`
	Point      int   `json:"point"`
	N          int   `json:"n"`
	OK         []int `json:"ok"`
	DonePoints int   `json:"done_points"`
	Points     int   `json:"points"`
}

// Plan returns the job's sweep plan. Callers must treat it as read-only;
// the distributed worker uses it to fingerprint-check a lease against the
// coordinator's plan before trusting the point indexes.
func (j *Job) Plan() *experiments.SweepPlan { return j.plan }

// completeShard merges one shard's tallies (or failure) into its point.
func (j *Job) completeShard(point int, counts []int, n int, err error) {
	j.donePackets.Add(int64(n))
	if err != nil {
		j.fail(err)
		return
	}
	ps := j.points[point]
	ps.mu.Lock()
	if ps.ok == nil {
		ps.ok = make([]int, len(counts))
	}
	for i, c := range counts {
		ps.ok[i] += c
	}
	ps.n += n
	ps.shardsLeft--
	pointDone := ps.shardsLeft == 0 && !ps.done
	if pointDone {
		ps.done = true
	}
	okCopy := ps.ok
	nTotal := ps.n
	ps.mu.Unlock()
	if !pointDone {
		return
	}
	if j.store != nil {
		if err := j.store.Put(time.Now(), store.Record{Key: j.keys[point], Tally: store.Tally{N: nTotal, OK: okCopy}}); err != nil {
			j.fail(err)
			return
		}
	}
	done := int(j.donePoints.Add(1))
	pointsDone.Inc()
	if done == j.active {
		j.finalize()
	}
}

// fail records the job's first error and cancels the rest of its work.
func (j *Job) fail(err error) {
	j.mu.Lock()
	already := j.finished
	if !already {
		j.finished = true
		j.err = err
		j.elapsed = time.Since(j.start)
		j.releaseLocked()
	}
	j.mu.Unlock()
	if already {
		return
	}
	jobsFailed.Inc()
	jobsRunning.Add(-1)
	j.cancel()
	close(j.done)
}

// finalize assembles the result once every active point is complete.
// Subset jobs keep their per-point tallies but skip table assembly — the
// figure tables need every point of the plan.
func (j *Job) finalize() {
	results := make([][]experiments.PSRPoint, len(j.points))
	for i, ps := range j.points {
		if ps == nil {
			continue
		}
		arms := ps.plan.Receivers()
		pts := make([]experiments.PSRPoint, len(arms))
		for a, k := range arms {
			pts[a] = experiments.PSRPoint{Kind: k, OK: ps.ok[a], N: ps.n}
		}
		results[i] = pts
	}
	var table *experiments.Table
	var err error
	if !j.subset {
		table, err = j.plan.Assemble(results)
	}
	j.mu.Lock()
	if j.finished {
		j.mu.Unlock()
		return
	}
	j.finished = true
	j.err = err
	j.table = table
	j.results = results
	j.elapsed = time.Since(j.start)
	j.releaseLocked()
	j.mu.Unlock()
	if err != nil {
		jobsFailed.Inc()
	} else {
		jobsDone.Inc()
	}
	jobsRunning.Add(-1)
	j.cancel()
	close(j.done)
}

// releaseLocked drops what ties a settled job to the engine and the
// store: the Close hook and the store pin. Callers hold j.mu.
func (j *Job) releaseLocked() {
	if j.stopClose != nil {
		j.stopClose()
	}
	if j.unpin != nil {
		j.unpin()
	}
}

// Cancel aborts the job; in-flight shards stop at the next packet
// boundary. Wait then returns context.Canceled.
func (j *Job) Cancel() { j.fail(context.Canceled) }

// Done returns a channel closed when the job finishes (any outcome).
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job completes, ctx expires, or the job fails.
func (j *Job) Wait(ctx context.Context) (*Result, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-j.done:
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return nil, j.err
	}
	return &Result{Table: j.table, Points: j.results, Elapsed: j.elapsed}, nil
}

// Progress returns a snapshot of the job's execution state.
func (j *Job) Progress() Progress {
	p := Progress{
		Experiment:     j.Spec.Experiment,
		State:          "running",
		Points:         j.active,
		DonePoints:     int(j.donePoints.Load()),
		RestoredPoints: j.restoredPoints,
		Packets:        j.totalPackets,
		DonePackets:    j.donePackets.Load(),
		ElapsedSec:     time.Since(j.start).Seconds(),
	}
	j.mu.Lock()
	if j.finished {
		p.ElapsedSec = j.elapsed.Seconds()
		if j.err != nil {
			p.State = "failed"
			p.Error = j.err.Error()
		} else {
			p.State = "done"
		}
	}
	j.mu.Unlock()
	return p
}
