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
