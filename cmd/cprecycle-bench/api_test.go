package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/sweep"
	"repro/internal/sweep/dist"
	"repro/internal/sweep/history"
	"repro/internal/sweep/store"
)

// decodeEnvelope asserts resp is the shared /v1 error envelope with the
// expected code and returns its message.
func decodeEnvelope(t *testing.T, resp *http.Response, wantStatus int, wantCode string) string {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("HTTP %d, want %d", resp.StatusCode, wantStatus)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error Content-Type %q, want application/json", ct)
	}
	var e api.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("error body is not the envelope: %v", err)
	}
	if e.Error.Code != wantCode || e.Error.Message == "" {
		t.Fatalf("envelope %+v, want code %q with a message", e, wantCode)
	}
	return e.Error.Message
}

// TestServeErrorEnvelope pins the envelope shape on every jobs-API
// failure path: auth, malformed spec, unknown job.
func TestServeErrorEnvelope(t *testing.T) {
	eng := sweep.New(sweep.Config{Workers: 1, ShardPackets: 2})
	defer eng.Close()
	srv := httptest.NewServer(dist.BearerAuth("tok", apiMux(engineBackend{eng: eng}, nil)))
	defer srv.Close()

	do := func(method, path, token, body string) *http.Response {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, srv.URL+path, rd)
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

	resp := do(http.MethodGet, "/v1/jobs", "", "")
	decodeEnvelope(t, resp, http.StatusUnauthorized, "unauthorized")
	if resp.Header.Get("WWW-Authenticate") == "" {
		t.Error("401 without WWW-Authenticate")
	}
	decodeEnvelope(t, do(http.MethodPost, "/v1/jobs", "tok", `{"experiment":`), http.StatusBadRequest, "bad_request")
	decodeEnvelope(t, do(http.MethodPost, "/v1/jobs", "tok", `{"experiment":"nope"}`), http.StatusBadRequest, "bad_request")
	decodeEnvelope(t, do(http.MethodGet, "/v1/jobs/j999", "tok", ""), http.StatusNotFound, "not_found")
	decodeEnvelope(t, do(http.MethodGet, "/v1/jobs/j999/table", "tok", ""), http.StatusNotFound, "not_found")
	decodeEnvelope(t, do(http.MethodDelete, "/v1/jobs/j999", "tok", ""), http.StatusNotFound, "not_found")
	decodeEnvelope(t, do(http.MethodGet, "/v1/jobs?limit=zero", "tok", ""), http.StatusBadRequest, "bad_request")
	decodeEnvelope(t, do(http.MethodGet, "/v1/jobs?cursor=-2", "tok", ""), http.StatusBadRequest, "bad_request")
}

// TestServeJobsPagination pins the listing contract: newest-submitted
// first, limit/cursor pages, and a cursor past the end answering an
// empty page rather than an error.
func TestServeJobsPagination(t *testing.T) {
	eng := sweep.New(sweep.Config{Workers: 2, ShardPackets: 2})
	defer eng.Close()
	srv := httptest.NewServer(apiMux(engineBackend{eng: eng}, nil))
	defer srv.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
			strings.NewReader(`{"experiment":"fig8","packets":2,"psdu_bytes":60,"seed":`+string(rune('3'+i))+`,"axis":[-10]}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, resp.StatusCode)
		}
		var p sweep.Progress
		if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ids = append(ids, p.ID)
	}

	page := func(query string) api.List[sweep.Progress] {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/jobs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("list%s: HTTP %d", query, resp.StatusCode)
		}
		var l api.List[sweep.Progress]
		if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
			t.Fatal(err)
		}
		return l
	}

	all := page("")
	if len(all.Items) != 3 || all.NextCursor != "" {
		t.Fatalf("full listing %+v", all)
	}
	// Newest-submitted first.
	if all.Items[0].ID != ids[2] || all.Items[2].ID != ids[0] {
		t.Fatalf("order %v, want reverse of %v", []string{all.Items[0].ID, all.Items[1].ID, all.Items[2].ID}, ids)
	}

	first := page("?limit=2")
	if len(first.Items) != 2 || first.NextCursor == "" {
		t.Fatalf("first page %+v", first)
	}
	second := page("?limit=2&cursor=" + first.NextCursor)
	if len(second.Items) != 1 || second.NextCursor != "" || second.Items[0].ID != ids[0] {
		t.Fatalf("second page %+v", second)
	}
	if empty := page("?cursor=50"); len(empty.Items) != 0 || empty.NextCursor != "" {
		t.Fatalf("past-the-end page %+v", empty)
	}
}

// TestServeDeleteSemantics pins cancel-vs-purge: DELETE cancels a
// running job outright, refuses a finished one with 409 unless ?purge=1
// makes the removal explicit, and 404s an unknown id (covered in
// TestServeErrorEnvelope).
func TestServeDeleteSemantics(t *testing.T) {
	eng := sweep.New(sweep.Config{Workers: 1, ShardPackets: 50})
	defer eng.Close()
	srv := httptest.NewServer(apiMux(engineBackend{eng: eng}, nil))
	defer srv.Close()

	submit := func(body string) sweep.Progress {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d", resp.StatusCode)
		}
		var p sweep.Progress
		if err := json.NewDecoder(resp.Body).Decode(&p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	del := func(path string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// A big slow job: DELETE while running cancels and removes, no purge
	// flag needed.
	running := submit(`{"experiment":"fig8","packets":2000,"psdu_bytes":60,"seed":3}`)
	resp := del("/v1/jobs/" + running.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel running: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()
	if eng.Job(running.ID) != nil {
		t.Fatal("cancelled job still listed")
	}

	// A finished job is a recorded result: DELETE without ?purge=1 is a
	// conflict that explains the distinction, with it the removal sticks.
	finished := submit(`{"experiment":"fig8","packets":2,"psdu_bytes":60,"seed":3,"axis":[-10]}`)
	if _, err := eng.Job(finished.ID).Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	msg := decodeEnvelope(t, del("/v1/jobs/"+finished.ID), http.StatusConflict, "conflict")
	if !strings.Contains(msg, "purge") {
		t.Fatalf("conflict message %q does not mention ?purge", msg)
	}
	if eng.Job(finished.ID) == nil {
		t.Fatal("409 DELETE removed the job anyway")
	}
	resp = del("/v1/jobs/" + finished.ID + "?purge=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("purge finished: HTTP %d", resp.StatusCode)
	}
	resp.Body.Close()
	if eng.Job(finished.ID) != nil {
		t.Fatal("purged job still listed")
	}
}

// TestServeHistorySurface is the end-to-end acceptance check for the
// results-history tier in serve mode: a sweep runs once against a
// store, and the stored sweep's /v1/history table is byte-identical to
// the live job's /v1/jobs/{id}/table — re-assembled from the store
// without re-running — while the self-diff reports zero deltas.
func TestServeHistorySurface(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(dir, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	hist, _, err := history.Open(dir, history.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	eng := sweep.New(sweep.Config{Workers: 2, ShardPackets: 2, Store: st})
	defer eng.Close()
	srv := httptest.NewServer(apiMux(engineBackend{eng: eng, hist: hist}, historyHandler(hist, st)))
	defer srv.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	// With no sweeps recorded yet, the history surface answers empty
	// collections and 404s, never 500s.
	if resp, body := get("/v1/history/experiments"); resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "[]" {
		t.Fatalf("empty experiments: %d %s", resp.StatusCode, body)
	}
	resp, body := get("/v1/history/sweeps")
	var empty api.List[history.Sweep]
	if err := json.Unmarshal(body, &empty); err != nil || len(empty.Items) != 0 {
		t.Fatalf("empty sweeps: %d %s", resp.StatusCode, body)
	}

	// Run one sweep to completion through the API.
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment":"fig8","packets":3,"psdu_bytes":60,"seed":3,"axis":[-10,-20]}`))
	if err != nil {
		t.Fatal(err)
	}
	var prog sweep.Progress
	if err := json.NewDecoder(resp.Body).Decode(&prog); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := eng.Job(prog.ID).Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The submission is in the history index.
	resp, body = get("/v1/history/sweeps?experiment=fig8")
	var sweeps api.List[history.Sweep]
	if err := json.Unmarshal(body, &sweeps); err != nil || len(sweeps.Items) != 1 {
		t.Fatalf("recorded sweeps: %d %s", resp.StatusCode, body)
	}
	fp := sweeps.Items[0].Fingerprint
	if sweeps.Items[0].Runs != 1 || len(fp) != 32 {
		t.Fatalf("recorded sweep %+v", sweeps.Items[0])
	}

	// Byte-identity: the stored sweep's table is exactly the live one.
	liveResp, live := get("/v1/jobs/" + prog.ID + "/table")
	histResp, stored := get("/v1/history/sweeps/" + fp + "/table")
	if liveResp.StatusCode != http.StatusOK || histResp.StatusCode != http.StatusOK {
		t.Fatalf("tables: live %d history %d (%s)", liveResp.StatusCode, histResp.StatusCode, stored)
	}
	if string(live) != string(stored) {
		t.Fatalf("stored table diverges from live table:\n--- live\n%s--- stored\n%s", live, stored)
	}
	if got, want := histResp.Header.Get("Content-Type"), liveResp.Header.Get("Content-Type"); got != want {
		t.Fatalf("table Content-Type %q vs live %q", got, want)
	}

	// A sweep diffed against itself has zero deltas.
	resp, body = get("/v1/history/diff?a=" + fp + "&b=" + fp)
	var d history.Diff
	if err := json.Unmarshal(body, &d); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("diff: %d %s", resp.StatusCode, body)
	}
	if !d.Equal || len(d.Points) != 0 || d.Shared != prog.Points {
		t.Fatalf("self-diff %+v", d)
	}

	// Unknown fingerprints are envelope 404s on both endpoints.
	resp, _ = get("/v1/history/sweeps/ffffffffffffffffffffffffffffffff/table")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown fp table: %d", resp.StatusCode)
	}
	resp, _ = get("/v1/history/diff?a=" + fp + "&b=ffffffffffffffffffffffffffffffff")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown fp diff: %d", resp.StatusCode)
	}
}

// TestStoreDirKeepsHistory pins that opening a store directory — through
// the CLI's openStore and through a durable coordinator — leaves the
// files neither owns alone: the history.jsonl sidecar still lists the
// sweep recorded before, and a foreign x.jsonl (here with the same
// bytes) is neither moved nor renamed.
func TestStoreDirKeepsHistory(t *testing.T) {
	dir := t.TempDir()
	hist, _, err := history.Open(dir, history.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	spec := sweep.Spec{Experiment: "fig8", Packets: 2, PSDUBytes: 60, Seed: 3, Axis: []float64{-10}}
	fp, err := hist.Record(spec, 0, 0, time.Unix(1_700_000_000, 0))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "history.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "x.jsonl"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := openStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := dist.New(dist.Config{StoreDir: dir, StoreNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	for _, name := range []string{"history.jsonl", "x.jsonl"} {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s: got %q, %v; want it left untouched", name, got, err)
		}
		if _, err := os.Stat(filepath.Join(dir, name+".migrated")); !os.IsNotExist(err) {
			t.Errorf("%s was renamed to %s.migrated", name, name)
		}
	}
	reopened, _, err := history.Open(dir, history.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if sw := reopened.Sweeps(history.Filter{}); len(sw) != 1 || sw[0].Fingerprint != fp {
		t.Fatalf("history after reopening lists %+v, want the one recorded sweep %s", sw, fp)
	}
}
