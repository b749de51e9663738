package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/sweep"
	"repro/internal/sweep/dist"
	"repro/internal/sweep/store"
	"repro/internal/wifi"
)

// fleet is one in-process coordinator with a durable store, served over
// loopback HTTP to one in-process worker.
type fleet struct {
	coord  *dist.Coordinator
	srv    *httptest.Server
	worker *dist.Worker
}

// fleetSpec is job j of a run: a small pooled fig8 sweep whose seed is
// distinct per (workload seed, j).
func fleetSpec(o options, j int) sweep.Spec {
	return sweep.Spec{
		Experiment: "fig8",
		Packets:    o.sizes.fleetPackets,
		PSDUBytes:  o.sizes.fleetPSDU,
		Seed:       o.seed<<20 + int64(j),
		Axis:       o.sizes.fleetAxis,
		MCS:        o.sizes.fleetMCS,
		Receivers:  []string{"standard", "cprecycle"},
		Pool:       true,
	}
}

// jobTimeout bounds one job's wait; a healthy job takes well under a
// second.
const jobTimeout = 60 * time.Second

// submitWait submits spec and waits for its table.
func submitWait(c *dist.Coordinator, spec sweep.Spec) (*dist.Job, *sweep.Result, error) {
	j, err := c.Submit(spec)
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	res, err := j.Wait(ctx)
	return j, res, err
}

// startFleet opens the coordinator and its store in dir, serves it over
// loopback, starts the worker, waits for it to register and runs one
// warm-up job so the worker's waveform pool is encoded.
func startFleet(o options, dir string, tap *httpTap) (*fleet, error) {
	// The store's fsyncs are off: on the shared VM this benchmark was
	// defined on, fsync latency swung fourfold within minutes, and a
	// lease result makes about 60 of them (a temp file and a directory
	// sync per point), so job latency followed the disk rather than the
	// program. Every file the store writes, renames and reopens is still
	// written.
	coord, err := dist.New(dist.Config{StoreDir: dir, StoreNoSync: true, PoolSeed: o.seed ^ poolSeedMix})
	if err != nil {
		return nil, err
	}
	f := &fleet{coord: coord, srv: httptest.NewServer(tap.handler(coord.Handler()))}
	f.worker, err = dist.StartWorker(dist.WorkerConfig{
		Coordinator: f.srv.URL,
		ID:          "perfbench",
		Engine:      sweep.Config{Workers: loopGoroutines()},
		HTTPClient:  &http.Client{Transport: tap.transport(http.DefaultTransport)},
	})
	if err != nil {
		f.srv.Close()
		coord.Close()
		return nil, err
	}
	for deadline := time.Now().Add(jobTimeout); len(coord.WorkerInfos()) == 0; {
		if time.Now().After(deadline) {
			f.close()
			return nil, fmt.Errorf("worker did not register")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := submitWait(coord, fleetSpec(o, -1)); err != nil {
		f.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return f, nil
}

// close stops the worker, the server and the coordinator, in that order,
// and waits for each.
func (f *fleet) close() {
	f.worker.Close()
	f.srv.Close()
	f.coord.Close()
}

// fleetJob is one completed cold job and its replay.
type fleetJob struct {
	spec     sweep.Spec
	table    string
	cold     sample // weight: packets run
	replay   sample
	points   int
	restored int // points the replay restored from the store
	submitMS [2]float64
	planMS   float64
}

// fleetLoop runs cold jobs and their replays closed-loop, starting at job
// index first, until d has passed and at least minJobs cold jobs ran.
// Like a client that cleans up, it removes each job from the coordinator
// once it has read the table (Coordinator.Remove, as DELETE /v1/jobs/{id}
// does), so the coordinator holds one job at a time and every job meets
// the same coordinator state; the store keeps every point.
// With rec set it records spans and times NewSweepPlan on each spec;
// with rss set it samples the resident set between jobs and with cal it
// times the calibrator after every job.
func fleetLoop(o options, f *fleet, first int, d time.Duration, minJobs int, tap *httpTap, rec *tracedFleet, rss *rssSampler, cal *calSamples) ([]fleetJob, time.Duration, error) {
	var jobs []fleetJob
	planPool := wifi.NewWaveformPool(f.coord.PoolIdentity())
	start := time.Now()
	for j := first; time.Since(start) < d || len(jobs) < minJobs; j++ {
		spec := fleetSpec(o, j)
		var fj fleetJob
		fj.spec = spec
		var cycle int
		if rec != nil {
			cycle = rec.begin("fleet.cycle", -1, j)
			s := rec.begin("sweep.NewSweepPlan", cycle, j)
			req, err := spec.Request(planPool)
			if err == nil {
				_, err = experiments.NewSweepPlan(req)
			}
			rec.end(s)
			if err != nil {
				return nil, 0, err
			}
			fj.planMS = rec.ms(s)
		}
		for phase, name := range []string{"cold", "replay"} {
			t0 := time.Now()
			var sub, wait int
			if rec != nil {
				sub = rec.begin("dist.Coordinator.Submit."+name, cycle, j)
			}
			job, err := f.coord.Submit(spec)
			if rec != nil {
				rec.end(sub)
				fj.submitMS[phase] = rec.ms(sub)
				wait = rec.begin("dist.Job.Wait."+name, cycle, j)
				tap.job.Store(int64(j))
				tap.parent.Store(int64(wait))
			}
			if err != nil {
				return nil, 0, fmt.Errorf("job %d %s submit: %w", j, name, err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
			res, err := job.Wait(ctx)
			cancel()
			dur := sample{end: time.Since(start), ms: ms(time.Since(t0))}
			if rec != nil {
				tap.parent.Store(-1)
				rec.end(wait)
			}
			if err != nil {
				return nil, 0, fmt.Errorf("job %d %s: %w", j, name, err)
			}
			pr := job.Progress()
			table := res.Table.Render()
			f.coord.Remove(job.ID)
			if phase == 0 {
				fj.table, fj.cold, fj.points = table, dur, pr.Points
				fj.cold.weight = float64(pr.Packets)
				if pr.RestoredPoints != 0 {
					return nil, 0, fmt.Errorf("job %d: cold job restored %d points; its seed is not distinct", j, pr.RestoredPoints)
				}
			} else {
				fj.replay, fj.restored = dur, pr.RestoredPoints
				if table != fj.table {
					fj.table = "" // mark the mismatch for the caller
				}
			}
		}
		if rec != nil {
			rec.end(cycle)
		}
		if rss != nil {
			rss.maybe()
		}
		if cal != nil {
			cal.take()
		}
		jobs = append(jobs, fj)
	}
	return jobs, time.Since(start), nil
}

// checkFleetJobs compares every cold table with the direct, engine-less
// experiments.RunSweepPlan and every replay with its cold table (an
// empty table marks a replay that differed). Jobs are checked
// concurrently, one per driving goroutine.
func checkFleetJobs(out *outcome, jobs []fleetJob, poolSize int, poolSeed int64) error {
	pool := wifi.NewWaveformPool(poolSize, poolSeed)
	direct := make([]string, len(jobs))
	if err := forEach(loopGoroutines(), len(jobs), func(_, k int) error {
		req, err := jobs[k].spec.Normalised().Request(pool)
		if err != nil {
			return err
		}
		plan, err := experiments.NewSweepPlan(req)
		if err != nil {
			return err
		}
		tb, err := experiments.RunSweepPlan(plan)
		if err != nil {
			return err
		}
		direct[k] = tb.Render()
		return nil
	}); err != nil {
		return err
	}
	for k, fj := range jobs {
		out.check(fj.table != "", "seed %d: replay table differs from the cold table", fj.spec.Seed)
		out.check(fj.restored == fj.points, "seed %d: replay restored %d of %d points", fj.spec.Seed, fj.restored, fj.points)
		out.check(fj.table == direct[k], "seed %d: fleet table differs from RunSweepPlan", fj.spec.Seed)
	}
	return nil
}

// fleetDir names the store directory of set-up i.
func fleetDir(o options, i int) string {
	return filepath.Join(o.workDir, fmt.Sprintf("fleet-%d-%d", os.Getpid(), i))
}

// runFleet measures fleet-sweep.
func runFleet(o options) (*outcome, error) {
	if o.trace {
		return traceFleet(o)
	}
	out := newOutcome()
	tap := &httpTap{}
	tap.parent.Store(-1)
	rep := 0
	defer func() {
		for i := 0; i < rep; i++ {
			os.RemoveAll(fleetDir(o, i))
		}
	}()
	f, setupTimes, err := repeatedSetup(o.sizes.setupReps, func() (*fleet, error) {
		dir := fleetDir(o, rep)
		rep++
		return startFleet(o, dir, tap)
	}, func(f *fleet) {
		f.close()
		runtime.GC() // collect its waveform pool before the next set-up is timed
	})
	if err != nil {
		return nil, err
	}
	rss := startRSS()
	cal := newCalSamples()
	jobs, wall, err := fleetLoop(o, f, 0, time.Duration(o.seconds*float64(time.Second)), o.sizes.fleetMinJobs, tap, nil, rss, cal)
	rss.take()
	f.close()
	if err != nil {
		return nil, err
	}
	if rss.err != nil {
		return nil, rss.err
	}
	out.attempted += 2 * len(jobs)
	size, seed := f.coord.PoolIdentity()
	if err := checkFleetJobs(out, jobs, size, seed); err != nil {
		return nil, err
	}

	var cold, replay []sample
	points := 0
	for _, fj := range jobs {
		cold = append(cold, fj.cold)
		replay = append(replay, fj.replay)
		points += fj.points
	}
	n := len(jobs)
	p50, p95 := windowedP50(cold, wall), windowedP95(cold, wall)
	r50 := windowedP50(replay, wall)
	rate := windowedRate(cold, wall)
	setup := median(setupTimes)
	// Times are reported in calibrated ms (see calibrate.go).
	calMS := calibration(cal.ms)
	scale := calScale(calMS)
	out.metrics["setup_s"] = metric{setup * scale, "s", len(setupTimes)}
	out.metrics["pkt_per_s"] = metric{rate / scale, "1/s", n}
	out.metrics["op_ms_p50"] = metric{p50 * scale, "ms", n}
	out.metrics["rss_mb"] = metric{rss.typical(), "MB", len(rss.samples)}

	// The workload's own names, as measured, with sample counts.
	out.detail["calibration_ms"] = metric{calMS, "ms", len(cal.ms)}
	out.detail["setup_s"] = metric{setup, "s", len(setupTimes)}
	out.detail["job_s_p50"] = metric{p50 / 1000, "s", n}
	if tailReportable(n, 0.95) {
		out.detail["job_s_p95"] = metric{p95 / 1000, "s", n}
	} else {
		out.notes = append(out.notes, fmt.Sprintf("job_s_p95 omitted: %d jobs leave fewer than 10 beyond it", n))
	}
	out.detail["points_per_s"] = metric{rate * float64(points) / packetsOf(jobs), "1/s", points}
	out.detail["pkt_per_s"] = metric{rate, "1/s", n}
	out.detail["replay_ms_p50"] = metric{r50, "ms", n}
	if tailReportable(n, 0.95) {
		out.detail["replay_ms_p95"] = metric{quantile(latencies(replay), 0.95), "ms", n}
	} else {
		out.notes = append(out.notes, fmt.Sprintf("replay_ms_p95 omitted: %d replays leave fewer than 10 beyond it", n))
	}
	out.detail["rss_mb"] = out.metrics["rss_mb"]
	vmHWM, err := statusMB("VmHWM")
	if err != nil {
		return nil, err
	}
	out.detail["peak_rss_mb"] = metric{vmHWM, "MB", 1}
	out.notes = append(out.notes, "transport: loopback only (httptest server on 127.0.0.1); no traffic leaves the host")
	return out, nil
}

// packetsOf sums the packets the cold jobs ran.
func packetsOf(jobs []fleetJob) float64 {
	n := 0.0
	for _, fj := range jobs {
		n += fj.cold.weight
	}
	return n
}

// tracedFleet is the fleet run's span recorder: one for the whole run,
// shared by the client loop and the server's handlers.
type tracedFleet struct {
	mu  sync.Mutex
	rec *recorder
}

func (t *tracedFleet) begin(name string, parent, trace int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rec.begin(name, parent, trace)
}

func (t *tracedFleet) end(i int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rec.end(i)
}

func (t *tracedFleet) ms(i int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return ms(t.rec.dur(i))
}

// httpTap observes the coordinator's HTTP surface from outside it: a
// timing wrapper around Coordinator.Handler and a counting transport for
// the worker's client. It records only while on.
type httpTap struct {
	on     atomic.Bool
	rec    *tracedFleet
	parent atomic.Int64 // span of the job being waited for, -1 if none
	job    atomic.Int64 // index of that job

	mu       sync.Mutex
	leaseMS  []float64 // granted lease requests
	resultMS []float64
	requests atomic.Int64
	wire     atomic.Int64 // request and response body bytes
}

// handler wraps the coordinator's handler with a span per request.
func (t *httpTap) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s := t.rec.begin("dist.http "+r.URL.Path, int(t.parent.Load()), int(t.job.Load()))
		h.ServeHTTP(sw, r)
		t.rec.end(s)
		d := t.rec.ms(s)
		t.mu.Lock()
		switch {
		case r.URL.Path == "/v1/dist/lease" && sw.status == http.StatusOK:
			t.leaseMS = append(t.leaseMS, d)
		case r.URL.Path == "/v1/dist/result":
			t.resultMS = append(t.resultMS, d)
		}
		t.mu.Unlock()
	})
}

// transport wraps base with request and body-byte counting.
func (t *httpTap) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if !t.on.Load() {
			return base.RoundTrip(req)
		}
		t.requests.Add(1)
		if req.ContentLength > 0 {
			t.wire.Add(req.ContentLength)
		}
		resp, err := base.RoundTrip(req)
		if err == nil {
			resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.wire}
		}
		return resp, err
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// countingBody counts the bytes read from a response body.
type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// statusWriter records the response status.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// countFiles counts the regular files under dir.
func countFiles(dir string) (int, error) {
	n := 0
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			n++
		}
		return nil
	})
	return n, err
}

// traceFleet is the traced run of fleet-sweep: half the time untraced,
// half with spans, request counting and handler timing on; then the
// store is reopened from disk.
func traceFleet(o options) (*outcome, error) {
	out := newOutcome()
	tf := &tracedFleet{rec: newRecorder(time.Now())}
	tap := &httpTap{rec: tf}
	tap.parent.Store(-1)
	dir := fleetDir(o, 0)
	defer os.RemoveAll(dir)
	f, err := startFleet(o, dir, tap)
	if err != nil {
		return nil, err
	}
	phase := time.Duration(o.seconds / 2 * float64(time.Second))
	minJobs := max(o.sizes.fleetMinJobs/2, 1)
	untraced, wallA, err := fleetLoop(o, f, 0, phase, minJobs, tap, nil, nil, nil)
	if err != nil {
		f.close()
		return nil, err
	}

	files0, err := countFiles(dir)
	if err != nil {
		f.close()
		return nil, err
	}
	bytes0 := f.coord.Store().Bytes()
	leases0, polls0 := f.worker.Leases(), f.worker.Polls()
	tap.on.Store(true)
	traced, wallB, err := fleetLoop(o, f, len(untraced), phase, minJobs, tap, tf, nil, nil)
	tap.on.Store(false)
	leases, polls := f.worker.Leases()-leases0, f.worker.Polls()-polls0
	bytes := f.coord.Store().Bytes() - bytes0
	f.close()
	if err != nil {
		return nil, err
	}
	files, err := countFiles(dir)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	st, stats, err := store.Open(dir, store.Options{})
	reopenMS := ms(time.Since(t0))
	if err != nil {
		return nil, err
	}
	out.attempted += 2 * (len(untraced) + len(traced))
	wantPoints := 0
	for _, fj := range append(untraced, traced...) {
		wantPoints += fj.points
	}
	out.check(st.Len() >= wantPoints && stats.DamagedSegments == 0,
		"reopened store holds %d records (%d damaged segments), want at least %d", st.Len(), stats.DamagedSegments, wantPoints)
	st.Close()
	size, seed := f.coord.PoolIdentity()
	if err := checkFleetJobs(out, append(untraced, traced...), size, seed); err != nil {
		return nil, err
	}

	jobs := float64(len(traced))
	var submitCold, submitReplay, plan float64
	points, restored := 0, 0
	for _, fj := range traced {
		submitCold += fj.submitMS[0]
		submitReplay += fj.submitMS[1]
		plan += fj.planMS
		points += fj.points
		restored += fj.restored
	}
	pollsPerLease := 0.0
	if leases > 0 {
		pollsPerLease = float64(polls) / float64(leases)
	}
	layer := map[string]float64{
		"dist.submit_ms.cold":   submitCold / jobs,
		"dist.submit_ms.replay": submitReplay / jobs,
		"sweep.plan_ms":         plan / jobs,
		"dist.lease_ms_p50":     median(tap.leaseMS),
		"dist.result_ms_p50":    median(tap.resultMS),
		"dist.requests_per_job": float64(tap.requests.Load()) / jobs,
		"dist.leases_per_job":   float64(leases) / jobs,
		"dist.wire_kb_per_job":  float64(tap.wire.Load()) / 1024 / jobs,
		"dist.polls_per_lease":  pollsPerLease,
		"store.files_per_job":   float64(files-files0) / jobs,
		"store.bytes_per_point": float64(bytes) / float64(points),
		"store.reopen_ms":       reopenMS,
		"store.hit_ratio":       float64(restored) / float64(points),
		"trace.overhead":        (jobs / wallB.Seconds()) / (float64(len(untraced)) / wallA.Seconds()),
	}
	if err := fillLayers(out, layer, len(traced)); err != nil {
		return nil, err
	}
	out.detail["traced.jobs"] = metric{jobs, "count", len(traced)}
	out.detail["untraced.jobs"] = metric{float64(len(untraced)), "count", len(untraced)}
	out.notes = append(out.notes, "transport: loopback only (httptest server on 127.0.0.1); no traffic leaves the host")
	return out, writeSpans(spanFile(o, "fleet-sweep"), []*recorder{tf.rec})
}
