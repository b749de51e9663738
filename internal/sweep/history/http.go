package history

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/api"
	"repro/internal/sweep/store"
)

// Handler mounts the read-only history query surface over ix and st:
//
//	GET /v1/history/experiments        per-experiment run summaries
//	GET /v1/history/sweeps             recorded sweeps, newest first;
//	                                   ?experiment= ?fingerprint=
//	                                   ?since=UNIX ?until=UNIX filters,
//	                                   ?limit=/?cursor= pagination
//	GET /v1/history/sweeps/{fp}/table  the stored sweep reassembled into
//	                                   its standard rendered table
//	                                   (byte-identical to the live
//	                                   /v1/jobs/{id}/table output)
//	GET /v1/history/diff?a=FP&b=FP     per-point tally deltas between two
//	                                   recorded sweeps
//
// Errors use the shared envelope: 404 unknown fingerprint, 409 when a
// table has store gaps (evicted or never-stored points, indices listed)
// or the binary plans a recorded spec differently (version skew), 400
// bad parameters, 404 or 405 a path or method no route serves. The
// surface is read-only by construction — callers mount it behind the
// same bearer auth as the rest of /v1.
func Handler(ix *Index, st *store.Store) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /v1/history/experiments", func(w http.ResponseWriter, r *http.Request) {
		Queries.Inc()
		_ = api.WriteJSON(w, http.StatusOK, ix.Experiments())
	})

	mux.HandleFunc("GET /v1/history/sweeps", func(w http.ResponseWriter, r *http.Request) {
		Queries.Inc()
		p, err := api.ParsePage(r, 100, 1000)
		if err != nil {
			api.Error(w, http.StatusBadRequest, err)
			return
		}
		f := Filter{
			Experiment:  r.URL.Query().Get("experiment"),
			Fingerprint: r.URL.Query().Get("fingerprint"),
		}
		if f.Since, err = unixParam(r, "since"); err != nil {
			api.Error(w, http.StatusBadRequest, err)
			return
		}
		if f.Until, err = unixParam(r, "until"); err != nil {
			api.Error(w, http.StatusBadRequest, err)
			return
		}
		_ = api.WriteJSON(w, http.StatusOK, api.Paginate(ix.Sweeps(f), p))
	})

	mux.HandleFunc("GET /v1/history/sweeps/{fp}/table", func(w http.ResponseWriter, r *http.Request) {
		Queries.Inc()
		tb, err := ix.Table(r.PathValue("fp"), st)
		if err != nil {
			writeHistoryErr(w, err)
			return
		}
		// Identical rendering to the live jobs table handler, so a stored
		// sweep's table is byte-for-byte the one the original run served.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, tb.Render())
	})

	mux.HandleFunc("GET /v1/history/diff", func(w http.ResponseWriter, r *http.Request) {
		Queries.Inc()
		a, b := r.URL.Query().Get("a"), r.URL.Query().Get("b")
		if a == "" || b == "" {
			api.Errorf(w, http.StatusBadRequest, "diff needs ?a=FINGERPRINT&b=FINGERPRINT")
			return
		}
		d, err := ix.CompareSweeps(a, b, st)
		if err != nil {
			writeHistoryErr(w, err)
			return
		}
		_ = api.WriteJSON(w, http.StatusOK, d)
	})

	return api.Routes(mux)
}

// writeHistoryErr maps the package's typed errors onto envelope statuses.
func writeHistoryErr(w http.ResponseWriter, err error) {
	var missing *MissingPointsError
	switch {
	case errors.Is(err, ErrUnknownFingerprint):
		api.Error(w, http.StatusNotFound, err)
	case errors.As(err, &missing), errors.Is(err, ErrStalePlan):
		api.Error(w, http.StatusConflict, err)
	default:
		api.Error(w, http.StatusInternalServerError, err)
	}
}

// unixParam parses an optional Unix-seconds query parameter.
func unixParam(r *http.Request, name string) (int64, error) {
	s := r.URL.Query().Get(name)
	if s == "" {
		return 0, nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: want Unix seconds", name, s)
	}
	return n, nil
}
