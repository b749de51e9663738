// Package api is the shared HTTP plumbing of the /v1 surface: one JSON
// error envelope, one bounded JSON body reader, bearer-token auth
// middleware, and limit/cursor pagination helpers. The jobs API
// (cmd/cprecycle-bench), the dist coordinator's worker tier
// (internal/sweep/dist) and the results-history surface
// (internal/sweep/history) all build on it, so every endpoint answers
// failures in the same shape:
//
//	{"error":{"code":"not_found","message":"no job \"j9\""}}
//
// with Content-Type application/json. Codes are stable snake_case tokens
// derived from the HTTP status (bad_request, unauthorized, forbidden,
// not_found, conflict, gone, payload_too_large, internal, …) unless a
// handler supplies a more specific one. Status codes themselves are the contract the
// machine clients key on (the dist worker reacts to 401/403/410 without
// reading bodies); the envelope exists for humans and log pipelines.
package api

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// ErrorDetail is the inner object of the error envelope.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorBody is the JSON error envelope every /v1 endpoint answers
// failures with.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// CodeForStatus maps an HTTP status to its default envelope code.
func CodeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusUnauthorized:
		return "unauthorized"
	case http.StatusForbidden:
		return "forbidden"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusConflict:
		return "conflict"
	case http.StatusGone:
		return "gone"
	case http.StatusRequestEntityTooLarge:
		return "payload_too_large"
	case http.StatusInternalServerError:
		return "internal"
	default:
		if status >= 400 && status < 500 {
			return "bad_request"
		}
		return "internal"
	}
}

// WriteJSON writes v as an indented JSON response. The returned error is
// a mid-body encoding failure (client gone, marshalling bug) — the
// status line is already out, so callers can only log it.
func WriteJSON(w http.ResponseWriter, status int, v any) error {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// Error writes the error envelope with the status' default code.
func Error(w http.ResponseWriter, status int, err error) {
	ErrorCode(w, status, CodeForStatus(status), err.Error())
}

// Errorf is Error over a formatted message.
func Errorf(w http.ResponseWriter, status int, format string, args ...any) {
	ErrorCode(w, status, CodeForStatus(status), fmt.Sprintf(format, args...))
}

// ErrorCode writes the error envelope with an explicit code.
func ErrorCode(w http.ResponseWriter, status int, code, message string) {
	// The envelope is small and static-shaped; an encode failure here
	// means the client is gone, which needs no handling.
	_ = WriteJSON(w, status, ErrorBody{Error: ErrorDetail{Code: code, Message: message}})
}

// MaxBodyBytes caps every JSON request body ReadJSON accepts. The
// largest legitimate body, a lease result, is a few KiB.
const MaxBodyBytes = 1 << 20

// ReadJSON decodes r's JSON body into v, refusing unknown fields and
// reading at most MaxBodyBytes. On failure it answers the request — 413
// for an oversized body, 400 for malformed JSON — and returns false.
func ReadJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		Errorf(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooBig.Limit)
	} else {
		Errorf(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

// Routes wraps mux so that a request no pattern matches is answered in
// the error envelope rather than ServeMux's plain text: 404, or 405 with
// the mux's Allow header when the path is routed under other methods.
// Everything else, redirects included, is served by mux as before.
func Routes(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h, pattern := mux.Handler(r); pattern == "" {
			// The mux's fallback decides between 404 and 405; run it
			// against a recorder to learn which.
			rec := &fallbackRecorder{header: http.Header{}}
			h.ServeHTTP(rec, r)
			if rec.status == http.StatusNotFound || rec.status == http.StatusMethodNotAllowed {
				if allow := rec.header.Get("Allow"); allow != "" {
					w.Header().Set("Allow", allow)
				}
				Errorf(w, rec.status, "no route for %s %s", r.Method, r.URL.Path)
				return
			}
		}
		mux.ServeHTTP(w, r)
	})
}

// fallbackRecorder captures the status and headers of a ServeMux
// fallback handler and discards its body.
type fallbackRecorder struct {
	header http.Header
	status int
}

func (f *fallbackRecorder) Header() http.Header { return f.header }

func (f *fallbackRecorder) Write(b []byte) (int, error) {
	if f.status == 0 {
		f.status = http.StatusOK
	}
	return len(b), nil
}

func (f *fallbackRecorder) WriteHeader(status int) {
	if f.status == 0 {
		f.status = status
	}
}

// BearerAuth wraps h so every request must carry "Authorization: Bearer
// <token>". An empty token disables the check (localhost
// experimentation; production services set one). The comparison is
// constant-time and failures answer with the standard envelope.
func BearerAuth(token string, h http.Handler) http.Handler {
	if token == "" {
		return h
	}
	want := []byte("Bearer " + token)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if subtle.ConstantTimeCompare([]byte(r.Header.Get("Authorization")), want) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="cprecycle"`)
			ErrorCode(w, http.StatusUnauthorized, "unauthorized", "missing or invalid bearer token")
			return
		}
		h.ServeHTTP(w, r)
	})
}

// List is the paginated collection envelope: the page's items plus an
// opaque cursor naming the next page ("" when the listing is exhausted).
type List[T any] struct {
	Items      []T    `json:"items"`
	NextCursor string `json:"next_cursor,omitempty"`
}

// Page is a parsed limit/cursor query pair.
type Page struct {
	Limit  int
	Offset int
}

// ParsePage reads the standard "limit" and "cursor" query parameters.
// limit defaults to defLimit and is clamped to [1, maxLimit]; cursor is
// the opaque string a previous List.NextCursor handed out (internally a
// decimal offset). A malformed limit or cursor is a client error.
func ParsePage(r *http.Request, defLimit, maxLimit int) (Page, error) {
	p := Page{Limit: defLimit}
	if s := r.URL.Query().Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			return p, fmt.Errorf("bad limit %q: want a positive integer", s)
		}
		p.Limit = n
	}
	if p.Limit > maxLimit {
		p.Limit = maxLimit
	}
	if s := r.URL.Query().Get("cursor"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return p, fmt.Errorf("bad cursor %q", s)
		}
		p.Offset = n
	}
	return p, nil
}

// Paginate slices one page out of items (already in response order) and
// returns it with the next page's cursor ("" when items are exhausted).
// A cursor past the end yields an empty page, not an error: the listing
// may have shrunk between pages.
func Paginate[T any](items []T, p Page) List[T] {
	if p.Offset >= len(items) {
		return List[T]{Items: []T{}}
	}
	end := p.Offset + p.Limit
	next := ""
	if end < len(items) {
		next = strconv.Itoa(end)
	} else {
		end = len(items)
	}
	return List[T]{Items: items[p.Offset:end], NextCursor: next}
}
