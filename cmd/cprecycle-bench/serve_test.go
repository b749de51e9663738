package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
	"repro/internal/sweep/dist"
)

// testService builds what -serve runs: a coordinator with one in-process
// worker joined over a loopback worker tier (startLocalWorker). The
// heartbeat is short, so a DELETE reaches a running lease within
// milliseconds instead of the default 5s.
func testService(t *testing.T, cfg dist.Config) *dist.Coordinator {
	t.Helper()
	cfg.Heartbeat = 50 * time.Millisecond
	c, err := dist.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop, err := startLocalWorker(c, cfg.Token, sweep.Config{Workers: 2, ShardPackets: 2})
	if err != nil {
		c.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		stop()
		c.Close()
	})
	return c
}

// testServer serves testService's coordinator the way -serve does.
func testServer(t *testing.T, token string, cfg dist.Config) (*dist.Coordinator, *httptest.Server) {
	t.Helper()
	cfg.Token = token
	c := testService(t, cfg)
	srv := httptest.NewServer(serverHandler(token, c, nil, false))
	t.Cleanup(srv.Close)
	return c, srv
}

// TestServeAPI exercises the client API of -serve: bearer auth, job
// submission, the SSE stream (every point then a terminal event), the
// rendered table, and the rejection of specs that try to smuggle
// server-side paths.
func TestServeAPI(t *testing.T) {
	_, srv := testServer(t, "tok", dist.Config{})

	get := func(path, token string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := get("/v1/jobs", ""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("tokenless list: HTTP %d, want 401", resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	post := func(body string) (*http.Response, error) {
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer tok")
		req.Header.Set("Content-Type", "application/json")
		return http.DefaultClient.Do(req)
	}

	// Server-side paths must be refused over the network: the legacy
	// "checkpoint" spec field no longer exists, so a client still sending
	// one trips DisallowUnknownFields and gets a 400.
	resp, err := post(`{"experiment":"fig8","packets":2,"psdu_bytes":60,"checkpoint":"/etc/pwned"}`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("path-smuggling spec: HTTP %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = post(`{"experiment":"fig8","packets":3,"psdu_bytes":60,"seed":3,"axis":[-10,-20]}`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d, want 202", resp.StatusCode)
	}
	var prog sweep.Progress
	if err := json.NewDecoder(resp.Body).Decode(&prog); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if prog.Points != 6 {
		t.Fatalf("submitted job plans %d points, want 6", prog.Points)
	}

	// The SSE stream must deliver one point event per point and then the
	// terminal event, regardless of when the consumer connects.
	resp = get("/v1/jobs/"+prog.ID+"/events", "tok")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events Content-Type %q", ct)
	}
	var points, dones int
	var final sweep.Progress
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			switch event {
			case "point":
				points++
			case "done":
				dones++
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &final); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if points != 6 || dones != 1 {
		t.Fatalf("stream delivered %d point events and %d terminal events, want 6 and 1", points, dones)
	}
	if final.State != "done" || final.DonePoints != 6 {
		t.Fatalf("terminal event %+v", final)
	}

	resp = get("/v1/jobs/"+prog.ID+"/table", "tok")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("table: HTTP %d", resp.StatusCode)
	}
	var table strings.Builder
	sc2 := bufio.NewScanner(resp.Body)
	for sc2.Scan() {
		table.WriteString(sc2.Text())
		table.WriteByte('\n')
	}
	if !strings.HasPrefix(table.String(), "== Fig 8") {
		t.Fatalf("table output starts %q", strings.SplitN(table.String(), "\n", 2)[0])
	}
}

// TestServeSSELastEventID pins the SSE resume contract: every point event
// carries its seq as the event id, and a reconnect presenting
// Last-Event-ID receives only the points after it (plus the terminal
// event) instead of the full per-point replay. A malformed id falls back
// to full replay.
func TestServeSSELastEventID(t *testing.T) {
	_, srv := testServer(t, "", dist.Config{})

	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs",
		strings.NewReader(`{"experiment":"fig8","packets":3,"psdu_bytes":60,"seed":3,"axis":[-10,-20]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var prog sweep.Progress
	if err := json.NewDecoder(resp.Body).Decode(&prog); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// stream connects with the given Last-Event-ID header and returns the
	// ids of the point events received plus the number of terminal events.
	stream := func(lastID string) (ids []string, dones int) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+prog.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if lastID != "" {
			req.Header.Set("Last-Event-ID", lastID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("events: HTTP %d", resp.StatusCode)
		}
		sc := bufio.NewScanner(resp.Body)
		event, id := "", ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				id = strings.TrimPrefix(line, "id: ")
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				switch event {
				case "point":
					ids = append(ids, id)
				case "done":
					dones++
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return ids, dones
	}

	// First consumer: full replay, ids 0..5 in order.
	ids, dones := stream("")
	if len(ids) != 6 || dones != 1 {
		t.Fatalf("full stream: %d point events (%v), %d terminal", len(ids), ids, dones)
	}
	for i, id := range ids {
		if id != strconv.Itoa(i) {
			t.Fatalf("event %d carried id %q", i, id)
		}
	}

	// Reconnect mid-stream: only the points after Last-Event-ID replay.
	ids, dones = stream("3")
	if len(ids) != 2 || ids[0] != "4" || ids[1] != "5" || dones != 1 {
		t.Fatalf("resume after 3: ids %v, %d terminal", ids, dones)
	}

	// Reconnect at the end: no replay, just the terminal event.
	ids, dones = stream("5")
	if len(ids) != 0 || dones != 1 {
		t.Fatalf("resume after 5: ids %v, %d terminal", ids, dones)
	}

	// A malformed id is ignored: full replay.
	ids, _ = stream("not-a-number")
	if len(ids) != 6 {
		t.Fatalf("malformed Last-Event-ID: %d point events", len(ids))
	}
}

// TestServeMetricsAndStatus checks the observability surface of -serve:
// /metrics serves valid-looking Prometheus text with the engine families
// of its in-process worker present, and /v1/status returns a coherent
// coordinator snapshot after a job has run.
func TestServeMetricsAndStatus(t *testing.T) {
	c := testService(t, dist.Config{})
	mux := apiMux(c, nil)

	job, err := c.Submit(sweep.Spec{
		Experiment: "fig8", Packets: 2, PSDUBytes: 60, Seed: 3, Axis: []float64{-10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type %q", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE cpr_sweep_packets_total counter",
		"# TYPE cpr_sweep_stage_seconds histogram",
		`cpr_sweep_stage_seconds_bucket{le="+Inf",stage="decode"}`,
		"# TYPE cpr_sweep_jobs_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics body missing %q", want)
		}
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/status", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/status: HTTP %d", rec.Code)
	}
	var s statusSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.Mode != "coordinator" {
		t.Errorf("status mode %q, want coordinator", s.Mode)
	}
	if s.Jobs.Done != 1 || s.Jobs.Running != 0 {
		t.Errorf("status jobs %+v, want 1 done", s.Jobs)
	}
	if s.Metrics["cpr_sweep_packets_total"] <= 0 {
		t.Errorf("status metrics cpr_sweep_packets_total = %v, want > 0", s.Metrics["cpr_sweep_packets_total"])
	}
	if s.Runtime.GoVersion == "" || s.UptimeSec <= 0 {
		t.Errorf("status runtime %+v uptime %v", s.Runtime, s.UptimeSec)
	}
}

// TestServeCoordinatorStatusHasFleet checks the coordinator's status
// snapshot carries the fleet section.
func TestServeCoordinatorStatusHasFleet(t *testing.T) {
	c, err := dist.New(dist.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s := newStatus("coordinator", c)
	if s.Mode != "coordinator" {
		t.Errorf("status mode %q, want coordinator", s.Mode)
	}
	if s.Fleet == nil {
		t.Fatal("coordinator status has no fleet section")
	}
	if s.Fleet.WorkersActive != 0 || s.Fleet.JobsRunning != 0 {
		t.Errorf("idle coordinator fleet stats %+v", *s.Fleet)
	}
}

// sseFailFlushWriter implements http.ResponseWriter, http.Flusher and
// FlushError; every flush fails, simulating a disconnected SSE client
// whose writes still land in the kernel buffer.
type sseFailFlushWriter struct {
	hdr     http.Header
	code    int
	writes  int
	flushes int
}

func (w *sseFailFlushWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = make(http.Header)
	}
	return w.hdr
}
func (w *sseFailFlushWriter) Write(p []byte) (int, error) { w.writes++; return len(p), nil }
func (w *sseFailFlushWriter) WriteHeader(code int)        { w.code = code }
func (w *sseFailFlushWriter) Flush()                      {}
func (w *sseFailFlushWriter) FlushError() error {
	w.flushes++
	return errors.New("client gone")
}

// TestServeSSEStopsOnFlushError pins the disconnect fix: when the
// client is gone (every flush fails), the job event stream ends at the
// first failed flush instead of replaying the remaining points — or
// worse, parking in the live-tail select until the next point lands.
func TestServeSSEStopsOnFlushError(t *testing.T) {
	c := testService(t, dist.Config{})
	mux := apiMux(c, nil)

	job, err := c.Submit(sweep.Spec{
		Experiment: "fig8", Packets: 2, PSDUBytes: 60, Seed: 3, Axis: []float64{-10, -20},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	w := &sseFailFlushWriter{}
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+job.ID+"/events", nil)
	mux.ServeHTTP(w, req)
	if w.flushes != 1 {
		t.Errorf("flush attempts = %d, want 1 (stream must end at the first failed flush)", w.flushes)
	}
	// One replayed point is two writes (id line, then event+data); the
	// second point must never be written.
	if w.writes != 2 {
		t.Errorf("event writes = %d, want 2 (id + body of the first point only)", w.writes)
	}
}

// TestServeHidesWorkerTier pins that -serve keeps its worker tier off
// its public address: /v1/dist/register answers 404 there even with the
// join secret, while the same coordinator under -coordinator registers a
// worker on it.
func TestServeHidesWorkerTier(t *testing.T) {
	c := testService(t, dist.Config{Token: "tok"})
	register := func(h http.Handler) int {
		req := httptest.NewRequest(http.MethodPost, "/v1/dist/register", strings.NewReader(`{"worker":"intruder"}`))
		req.Header.Set("Authorization", "Bearer tok")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := register(serverHandler("tok", c, nil, false)); code != http.StatusNotFound {
		t.Fatalf("-serve public /v1/dist/register: HTTP %d, want 404", code)
	}
	if code := register(serverHandler("tok", c, nil, true)); code != http.StatusOK {
		t.Fatalf("-coordinator /v1/dist/register: HTTP %d, want 200", code)
	}
}

// TestServeUnknownRoutesUseEnvelope pins the envelope on paths no route
// serves: an unknown /v1 path and -serve's hidden /v1/dist/register are
// 404s and a known path under the wrong method a 405, all in the JSON
// error envelope like every other /v1 failure.
func TestServeUnknownRoutesUseEnvelope(t *testing.T) {
	_, srv := testServer(t, "tok", dist.Config{})
	do := func(method, path string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(`{"worker":"w"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer tok")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	decodeEnvelope(t, do(http.MethodGet, "/v1/nope"), http.StatusNotFound, "not_found")
	decodeEnvelope(t, do(http.MethodPost, "/v1/dist/register"), http.StatusNotFound, "not_found")
	decodeEnvelope(t, do(http.MethodGet, "/v1/history/sweeps"), http.StatusNotFound, "not_found")
	resp := do(http.MethodDelete, "/v1/experiments")
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, http.MethodGet) {
		t.Fatalf("405 Allow header %q, want GET listed", allow)
	}
	decodeEnvelope(t, resp, http.StatusMethodNotAllowed, "method_not_allowed")
}
