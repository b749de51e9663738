package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestReadJSON pins the body reader's three outcomes: a well-formed body
// decodes, malformed or unknown-field JSON is a 400, and a body over
// MaxBodyBytes is a 413 — all failures in the error envelope.
func TestReadJSON(t *testing.T) {
	type body struct {
		Name string `json:"name"`
	}
	read := func(payload string) (*httptest.ResponseRecorder, body, bool) {
		rec := httptest.NewRecorder()
		var v body
		ok := ReadJSON(rec, httptest.NewRequest(http.MethodPost, "/", strings.NewReader(payload)), &v)
		return rec, v, ok
	}
	if _, v, ok := read(`{"name":"x"}`); !ok || v.Name != "x" {
		t.Fatalf("good body: ok=%v v=%+v", ok, v)
	}
	for payload, want := range map[string]int{
		`{"name":`:               http.StatusBadRequest,
		`{"name":"x","extra":1}`: http.StatusBadRequest,
		`{"name":"` + strings.Repeat("a", 2<<20) + `"}`: http.StatusRequestEntityTooLarge,
	} {
		rec, _, ok := read(payload)
		if ok || rec.Code != want {
			t.Fatalf("body %.20q…: ok=%v HTTP %d, want %d", payload, ok, rec.Code, want)
		}
		var e ErrorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error.Code != CodeForStatus(want) {
			t.Fatalf("HTTP %d body %q is not the %s envelope", rec.Code, rec.Body.String(), CodeForStatus(want))
		}
	}
}

// TestRoutes pins the fallback of a wrapped ServeMux: an unknown path is
// a 404 and a known path under the wrong method a 405 with the Allow
// header, both in the error envelope; routed requests and the mux's
// path-cleaning redirects are untouched.
func TestRoutes(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/things", func(w http.ResponseWriter, r *http.Request) {
		_ = WriteJSON(w, http.StatusOK, []string{"a"})
	})
	h := Routes(mux)
	serve := func(method, path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec
	}
	for _, tc := range []struct {
		method, path string
		status       int
		code         string
	}{
		{http.MethodGet, "/v1/nope", http.StatusNotFound, "not_found"},
		{http.MethodPost, "/v1/things/x", http.StatusNotFound, "not_found"},
		{http.MethodDelete, "/v1/things", http.StatusMethodNotAllowed, "method_not_allowed"},
	} {
		rec := serve(tc.method, tc.path)
		if rec.Code != tc.status || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s %s: HTTP %d %q, want %d in JSON", tc.method, tc.path, rec.Code, rec.Header().Get("Content-Type"), tc.status)
		}
		var e ErrorBody
		if err := json.NewDecoder(rec.Body).Decode(&e); err != nil || e.Error.Code != tc.code || e.Error.Message == "" {
			t.Fatalf("%s %s: envelope %+v (%v), want code %q", tc.method, tc.path, e, err, tc.code)
		}
		if tc.status == http.StatusMethodNotAllowed && !strings.Contains(rec.Header().Get("Allow"), http.MethodGet) {
			t.Fatalf("405 without the mux's Allow header: %q", rec.Header().Get("Allow"))
		}
	}
	if rec := serve(http.MethodGet, "/v1/things"); rec.Code != http.StatusOK {
		t.Fatalf("routed request: HTTP %d", rec.Code)
	}
	if rec := serve(http.MethodGet, "/v1//things"); rec.Code != http.StatusMovedPermanently {
		t.Fatalf("unclean path: HTTP %d, want the mux's 301", rec.Code)
	}
}
