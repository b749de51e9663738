package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/experiments"
	"repro/internal/sweep"
	"repro/internal/sweep/dist"
	"repro/internal/sweep/history"
)

// The client-facing HTTP API — jobs, history and observability — is
// served over a dist.Coordinator in both serving modes. -coordinator
// mounts the coordinator's /v1/dist/ worker tier on the same address;
// -serve keeps it on a loopback listener for its one in-process worker
// (startLocalWorker).

// recordHistory notes an accepted submission in the results-history
// index, when the server has one. Recording failures are logged, never
// surfaced: history is an observability sidecar, not part of the submit
// contract.
func recordHistory(hist *history.Index, spec sweep.Spec, poolSize int, poolSeed int64) {
	if hist == nil {
		return
	}
	if _, err := hist.Record(spec, poolSize, poolSeed, time.Now()); err != nil {
		lg.Warn("recording sweep history", "err", err)
	}
}

// writeJSON writes one JSON response via the shared api helpers;
// encoding errors (the client went away mid-body, a marshalling bug) are
// logged, not dropped.
func writeJSON(w http.ResponseWriter, status int, v any) {
	if err := api.WriteJSON(w, status, v); err != nil {
		lg.Warn("writing response", "err", err)
	}
}

// writeErr answers with the shared /v1 error envelope
// ({"error":{"code","message"}}).
func writeErr(w http.ResponseWriter, status int, err error) {
	api.Error(w, status, err)
}

// apiMux builds the client API over coordinator c. hist, when non-nil
// (a server run with -store), records every accepted submission and
// mounts the read-only GET /v1/history/* query surface alongside the
// jobs API. /metrics carries the coordinator's fleet families next to
// the registry's. A request no route matches gets the error envelope.
func apiMux(c *dist.Coordinator, hist *history.Index) http.Handler {
	mux := http.NewServeMux()

	obsRoutes(mux, func() statusSnapshot { return newStatus("coordinator", c) }, c.WritePrometheus)

	if hist != nil && c.Store() != nil {
		mux.Handle("/v1/history/", history.Handler(hist, c.Store()))
	}

	mux.HandleFunc("GET /v1/experiments", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, experiments.SweepExperiments())
	})

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var spec sweep.Spec
		if !api.ReadJSON(w, r, &spec) {
			return
		}
		// Durability is server-side only: the store directory is named by
		// the -store flag, never by the spec, so remote clients hold no
		// path-write primitive. (The old "checkpoint" spec field is gone;
		// ReadJSON refuses unknown fields, so a spec still sending it 400s.)
		job, err := c.Submit(spec)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		size, seed := c.PoolIdentity()
		recordHistory(hist, spec, size, seed)
		writeJSON(w, http.StatusAccepted, job.Progress())
	})

	// Newest-submitted first, limit/cursor paginated: a long-running
	// service's job table can be large, and the recent jobs are the ones
	// dashboards ask for.
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		p, err := api.ParsePage(r, 100, 1000)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		jobs := c.Jobs() // submission order
		out := make([]sweep.Progress, 0, len(jobs))
		for i := len(jobs) - 1; i >= 0; i-- {
			out = append(out, jobs[i].Progress())
		}
		writeJSON(w, http.StatusOK, api.Paginate(out, p))
	})

	jobFor := func(w http.ResponseWriter, r *http.Request) (*dist.Job, bool) {
		j := c.Job(r.PathValue("id"))
		if j == nil {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
		}
		return j, j != nil
	}

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		if j, ok := jobFor(w, r); ok {
			writeJSON(w, http.StatusOK, j.Progress())
		}
	})

	mux.HandleFunc("GET /v1/jobs/{id}/table", func(w http.ResponseWriter, r *http.Request) {
		j, ok := jobFor(w, r)
		if !ok {
			return
		}
		p := j.Progress()
		switch p.State {
		case "running":
			writeJSON(w, http.StatusAccepted, p)
		case "failed":
			writeErr(w, http.StatusInternalServerError, fmt.Errorf("%s", p.Error))
		default:
			res, err := j.Wait(r.Context())
			if err != nil {
				writeErr(w, http.StatusInternalServerError, err)
				return
			}
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if _, err := fmt.Fprint(w, res.Table.Render()); err != nil {
				lg.Warn("writing table", "err", err)
			}
		}
	})

	// SSE stream: every completed point so far is replayed, then each
	// subsequent completion arrives as it lands, then a final terminal
	// event reports the job's outcome and the stream closes. Each point
	// event carries its sequence number as the SSE event id, and a
	// reconnecting consumer that presents the standard Last-Event-ID
	// header resumes mid-stream: points with seq <= Last-Event-ID are
	// not replayed. Schema:
	//
	//	id: 0
	//	event: point
	//	data: {"seq":0,"point":3,"n":2000,"ok":[1523,1892],"done_points":1,"points":30}
	//
	//	event: done
	//	data: {…sweep.Progress, "state":"done"|"failed"…}
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		j, ok := jobFor(w, r)
		if !ok {
			return
		}
		if _, ok := w.(http.Flusher); !ok {
			writeErr(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by this connection"))
			return
		}
		rc := http.NewResponseController(w)
		lastSeq := -1
		if v := r.Header.Get("Last-Event-ID"); v != "" {
			// A malformed id is ignored (full replay) rather than
			// rejected: the header is a resume hint, not a contract.
			if n, err := strconv.Atoi(v); err == nil {
				lastSeq = n
			}
		}
		past, ch, cancel := j.Subscribe()
		defer cancel()
		h := w.Header()
		h.Set("Content-Type", "text/event-stream")
		h.Set("Cache-Control", "no-cache")
		h.Set("Connection", "keep-alive")
		w.WriteHeader(http.StatusOK)
		// A write error means the subscriber went away; stop streaming
		// (the deferred cancel releases the subscription either way).
		emit := func(event, id string, v any) bool {
			data, err := json.Marshal(v)
			if err != nil {
				lg.Warn("marshalling event", "event", event, "err", err)
				return false
			}
			if id != "" {
				if _, err := fmt.Fprintf(w, "id: %s\n", id); err != nil {
					return false
				}
			}
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
				return false
			}
			// Flush errors mean the client is gone: stop now instead of
			// spinning until the next event's write fails.
			return rc.Flush() == nil
		}
		point := func(ev sweep.PointEvent) bool {
			if ev.Seq <= lastSeq {
				return true // already delivered before the reconnect
			}
			return emit("point", strconv.Itoa(ev.Seq), ev)
		}
		for _, ev := range past {
			if !point(ev) {
				return
			}
		}
		for {
			select {
			case <-r.Context().Done():
				return
			case ev, open := <-ch:
				if !open {
					// Channel closed: the job settled (done or failed).
					emit("done", "", j.Progress())
					return
				}
				if !point(ev) {
					return
				}
			}
		}
	})

	// DELETE is cancel for running jobs and purge for finished ones, and
	// the two are kept distinct: cancelling a running job is always
	// allowed (it stops work — a worker holding one of its leases stops
	// at its next heartbeat), but a terminal job is a recorded result
	// and removing it must be an explicit ?purge=1 opt-in — without it
	// the request answers 409 so an automated cancel sweeping a job
	// table never silently discards finished results.
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := jobFor(w, r)
		if !ok {
			return
		}
		p := j.Progress()
		if p.State != "running" && r.URL.Query().Get("purge") != "1" {
			api.ErrorCode(w, http.StatusConflict, "conflict", fmt.Sprintf(
				"job %s is %s: DELETE cancels running jobs; add ?purge=1 to remove a finished one", p.ID, p.State))
			return
		}
		c.Remove(p.ID)
		writeJSON(w, http.StatusOK, j.Progress())
	})

	return api.Routes(mux)
}

func listen(addr string, h http.Handler, what string) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Printf("%s listening on %s\n", what, addr)
	return srv.ListenAndServe()
}

// serverHandler is what a serving mode answers on its address: the
// client API behind bearer auth and, when distTier is set
// (-coordinator), the /v1/dist/ worker tier, which runs its own two-tier
// auth (join secret on registration and admin endpoints, per-worker
// minted tokens on the long-polling data plane) and so must NOT sit
// behind BearerAuth. Without it (-serve) /v1/dist/ answers 404.
func serverHandler(token string, c *dist.Coordinator, hist *history.Index, distTier bool) http.Handler {
	h := dist.BearerAuth(token, apiMux(c, hist))
	if !distTier {
		return h
	}
	root := http.NewServeMux()
	root.Handle("/v1/dist/", c.Handler())
	root.Handle("/", h)
	return root
}

// runServer runs -coordinator (distTier) or -serve on addr until the
// listener fails: a coordinator built from cfg behind serverHandler,
// with the results-history surface when cfg has a store. -serve also
// starts its one worker, running leases on an engine built from eng.
func runServer(distTier bool, addr string, cfg dist.Config, eng sweep.Config) error {
	c, err := dist.New(cfg)
	if err != nil {
		return err
	}
	defer c.Close()
	var hist *history.Index
	if cfg.StoreDir != "" {
		if hist, err = openHistory(cfg.StoreDir); err != nil {
			return err
		}
	}
	what := "sweep coordinator"
	if !distTier {
		stop, err := startLocalWorker(c, cfg.Token, eng)
		if err != nil {
			return err
		}
		defer stop()
		what = "sweep service"
	}
	return listen(addr, serverHandler(cfg.Token, c, hist, distTier), what)
}

// startLocalWorker gives coordinator c its compute for -serve: it serves
// c's worker tier on a loopback-only listener and starts one in-process
// worker against it. stop ends the worker, then the listener.
func startLocalWorker(c *dist.Coordinator, token string, eng sweep.Config) (stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: c.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			lg.Error("local worker tier", "err", err)
		}
	}()
	w, err := dist.StartWorker(dist.WorkerConfig{
		Coordinator: "http://" + ln.Addr().String(),
		Token:       token,
		Engine:      eng,
		Log:         lg,
	})
	if err != nil {
		srv.Close()
		return nil, err
	}
	return func() {
		w.Close()
		srv.Close()
	}, nil
}
