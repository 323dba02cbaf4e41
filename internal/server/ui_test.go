package server

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"

	"pivote/internal/core"
	"pivote/internal/kgtest"
)

var (
	// uiCall matches the page's fetch helper: api("METHOD", "/api/...").
	uiCall = regexp.MustCompile(`api\("(GET|POST)", "(/api/[^"?]*)`)
	// uiPath matches every /api/ path the page mentions at all.
	uiPath = regexp.MustCompile(`/api/[^"?\s]*`)
)

// TestUIRoutesServed is the UI drift check: every /api/ path the
// embedded page fetches, requested with the method the page uses, must
// reach a handler. A 404 or 405 from the mux means the page and the API
// have drifted apart.
func TestUIRoutesServed(t *testing.T) {
	calls := uiCall.FindAllStringSubmatch(indexHTML, -1)
	if len(calls) == 0 {
		t.Fatal("no api() calls found in the embedded page")
	}
	h := NewMulti(kgtest.Build().Graph, core.Options{}, 0).Handler()
	fetched := map[string]bool{}
	for _, c := range calls {
		method, path := c[1], c[2]
		fetched[path] = true
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		if rec.Code == http.StatusNotFound || rec.Code == http.StatusMethodNotAllowed {
			t.Errorf("page fetches %s %s; the mux answers %d", method, path, rec.Code)
		}
	}
	// A path the page mentions outside api() would escape the check.
	for _, path := range uiPath.FindAllString(indexHTML, -1) {
		if !fetched[path] {
			t.Errorf("page mentions %s outside an api() call", path)
		}
	}
}
