package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"pivote/internal/core"
	"pivote/internal/kg"
	"pivote/internal/kgtest"
)

// newTestServer serves a NewMulti front end — the handler every process
// shape serves. Requests made through postJSON/doV1 carry the session
// cookie it mints, so one test drives one session per server.
func newTestServer(t *testing.T) (*httptest.Server, *kgtest.Fixture) {
	t.Helper()
	f := kgtest.Build()
	m := NewMulti(f.Graph, core.Options{TopEntities: 10, TopFeatures: 8}, 0)
	ts := httptest.NewServer(m.Handler())
	t.Cleanup(ts.Close)
	return ts, f
}

// testClient keeps one session cookie per test server.
var testClient = &http.Client{Jar: &cookieJar{}}

// cookieJar is a minimal concurrency-safe jar keyed by host:port: it
// remembers the last cookies each server set and replays them to that
// server only, which is all the session-cookie flow needs. (Standard
// jars ignore the port, so two test servers on one host would trade
// session cookies.)
type cookieJar struct {
	mu      sync.Mutex
	cookies map[string][]*http.Cookie
}

func (j *cookieJar) SetCookies(u *url.URL, cookies []*http.Cookie) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(cookies) > 0 {
		if j.cookies == nil {
			j.cookies = map[string][]*http.Cookie{}
		}
		j.cookies[u.Host] = cookies
	}
}

func (j *cookieJar) Cookies(u *url.URL) []*http.Cookie {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cookies[u.Host]
}

func postJSON(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := testClient.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// postOps POSTs ops as one /api/v1/ops batch.
func postOps(t *testing.T, base string, ops ...core.OpDTO) *http.Response {
	t.Helper()
	return postJSON(t, base+"/api/v1/ops", map[string]interface{}{"ops": ops})
}

// applyOps POSTs ops as one batch and returns the resulting state,
// failing the test on any error envelope.
func applyOps(t *testing.T, base string, ops ...core.OpDTO) StateV1DTO {
	t.Helper()
	resp := postOps(t, base, ops...)
	if resp.StatusCode != http.StatusOK {
		var env V1ErrorEnvelope
		_ = json.NewDecoder(resp.Body).Decode(&env)
		t.Fatalf("status %d: %s", resp.StatusCode, env.Error.Message)
	}
	var out OpsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.State
}

// expectErr asserts a typed v1 error envelope with the given status.
func expectErr(t *testing.T, resp *http.Response, status int) {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status = %d, want %d", resp.StatusCode, status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	decodeV1Err(t, raw)
}

func TestUIServed(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, raw := doV1(t, "GET", ts.URL+"/", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(raw), "PivotE") || !strings.Contains(string(raw), "/api/v1/ops") {
		t.Fatal("UI page malformed")
	}
}

func TestQueryEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	st := applyOps(t, ts.URL, core.OpDTO{Op: "submit", Keywords: "forrest gump"})
	if len(st.Entities) == 0 || st.Entities[0].Name != "Forrest Gump" {
		t.Fatalf("entities = %+v", st.Entities)
	}
	if len(st.Timeline) != 1 {
		t.Fatalf("timeline = %+v", st.Timeline)
	}
	if st.Entities[0].Type != "Film" {
		t.Fatalf("type annotation = %q", st.Entities[0].Type)
	}
}

func TestEntityAddByNameAndID(t *testing.T) {
	ts, f := newTestServer(t)
	st := applyOps(t, ts.URL, core.OpDTO{Op: "add-entity", Entity: "Forrest_Gump"})
	if !strings.Contains(st.Description, "Forrest Gump") {
		t.Fatalf("description = %q", st.Description)
	}
	st = applyOps(t, ts.URL, core.OpDTO{Op: "add-entity", EntityID: uint32(f.E("Apollo_13"))})
	if !strings.Contains(st.Description, "Apollo 13") {
		t.Fatalf("description = %q", st.Description)
	}
	if len(st.Entities) == 0 {
		t.Fatal("no recommendations after two seeds")
	}
}

func TestEntityAddErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	expectErr(t, postOps(t, ts.URL, core.OpDTO{Op: "add-entity", Entity: "Nope_Nope"}), http.StatusNotFound)
	expectErr(t, postOps(t, ts.URL, core.OpDTO{Op: "add-entity", EntityID: 999999}), http.StatusNotFound)
	expectErr(t, postOps(t, ts.URL, core.OpDTO{Op: "add-entity"}), http.StatusBadRequest)
}

func TestFeatureAddRemove(t *testing.T) {
	ts, _ := newTestServer(t)
	st := applyOps(t, ts.URL, core.OpDTO{Op: "add-feature", Feature: "Tom_Hanks:starring"})
	if len(st.Entities) != 6 {
		t.Fatalf("Tom_Hanks:starring = %d films, want 6", len(st.Entities))
	}
	st = applyOps(t, ts.URL, core.OpDTO{Op: "remove-feature", Feature: "Tom_Hanks:starring"})
	if len(st.Entities) != 0 {
		t.Fatal("feature removal did not clear results")
	}
	expectErr(t, postOps(t, ts.URL, core.OpDTO{Op: "add-feature", Feature: "Bogus:nope"}), http.StatusBadRequest)
}

func TestPivotEndpoint(t *testing.T) {
	ts, f := newTestServer(t)
	applyOps(t, ts.URL, core.OpDTO{Op: "submit", Keywords: "forrest gump"})
	st := applyOps(t, ts.URL, core.OpDTO{Op: "pivot", EntityID: uint32(f.E("Tom_Hanks"))})
	if !strings.Contains(st.Description, "Tom Hanks") {
		t.Fatalf("pivot description = %q", st.Description)
	}
	for _, e := range st.Entities {
		if e.Type != "Actor" {
			t.Fatalf("pivot produced %s of type %s", e.Name, e.Type)
		}
	}
}

func TestRevisitEndpoint(t *testing.T) {
	ts, f := newTestServer(t)
	applyOps(t, ts.URL, core.OpDTO{Op: "submit", Keywords: "forrest gump"})
	applyOps(t, ts.URL, core.OpDTO{Op: "pivot", EntityID: uint32(f.E("Tom_Hanks"))})
	st := applyOps(t, ts.URL, core.OpDTO{Op: "revisit", Step: 1})
	if !strings.Contains(st.Description, "forrest gump") {
		t.Fatalf("revisit description = %q", st.Description)
	}
	expectErr(t, postOps(t, ts.URL, core.OpDTO{Op: "revisit", Step: 99}), http.StatusBadRequest)
}

// TestProfileEndpoint covers the UI's profile click: a lookup op records
// the view on the timeline, and GET /api/v1/profile reads the profile
// without touching the session.
func TestProfileEndpoint(t *testing.T) {
	ts, f := newTestServer(t)
	getProfile := func(query string) (int, []byte) {
		resp, raw := doV1(t, "GET", ts.URL+"/api/v1/profile?"+query, "")
		return resp.StatusCode, raw
	}
	code, raw := getProfile(fmt.Sprintf("entityId=%d", f.E("Forrest_Gump")))
	if code != http.StatusOK {
		t.Fatalf("by-id status = %d: %s", code, raw)
	}
	var p kg.Profile
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatal(err)
	}
	if p.Name != "Forrest Gump" || len(p.Facts) == 0 || len(p.Literals) == 0 {
		t.Fatalf("profile = %+v", p)
	}
	if code, raw := getProfile("entity=Tom_Hanks"); code != http.StatusOK {
		t.Fatalf("by-name status = %d: %s", code, raw)
	}

	for _, bad := range []struct {
		query  string
		status int
	}{
		{"", http.StatusBadRequest},
		{"entityId=abc", http.StatusBadRequest},
		{"entityId=999999", http.StatusNotFound},
		{"entity=Zzz", http.StatusNotFound},
	} {
		code, raw := getProfile(bad.query)
		if code != bad.status {
			t.Fatalf("profile?%s: status %d, want %d", bad.query, code, bad.status)
		}
		decodeV1Err(t, raw)
	}

	// The reads above recorded nothing; the lookup op does.
	_, raw = doV1(t, "GET", ts.URL+"/api/v1/state?include=timeline", "")
	var st StateV1DTO
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Timeline) != 0 {
		t.Fatalf("profile read recorded actions: %+v", st.Timeline)
	}
	st = applyOps(t, ts.URL, core.OpDTO{Op: "lookup", EntityID: uint32(f.E("Forrest_Gump"))})
	if len(st.Timeline) != 1 || st.Timeline[0].Kind != "lookup" || st.Timeline[0].ChangesQuery {
		t.Fatalf("lookup timeline = %+v", st.Timeline)
	}
}

func TestHeatmapAndPathArtifacts(t *testing.T) {
	ts, _ := newTestServer(t)
	applyOps(t, ts.URL, core.OpDTO{Op: "submit", Keywords: "forrest gump"})
	applyOps(t, ts.URL, core.OpDTO{Op: "add-entity", Entity: "Forrest_Gump"})
	for _, path := range []string{"/api/v1/heatmap.svg", "/api/v1/path.svg"} {
		resp, raw := doV1(t, "GET", ts.URL+path, "")
		if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
			t.Fatalf("%s content type %q", path, ct)
		}
		if !strings.Contains(string(raw), "<svg") {
			t.Fatalf("%s not SVG", path)
		}
	}
	_, raw := doV1(t, "GET", ts.URL+"/api/v1/path.dot", "")
	if !strings.Contains(string(raw), "digraph") || !strings.Contains(string(raw), "+entity Forrest Gump") {
		t.Fatalf("path.dot is not this session's DOT path: %s", raw)
	}
}

func TestSuggestEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	_, raw := doV1(t, "GET", ts.URL+"/api/v1/suggest?q=tom", "")
	var hits []EntityDTO
	if err := json.Unmarshal(raw, &hits); err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 {
		t.Fatal("no suggestions for 'tom'")
	}
	_, raw = doV1(t, "GET", ts.URL+"/api/v1/suggest", "")
	var empty []EntityDTO
	if err := json.Unmarshal(raw, &empty); err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatal("empty query returned suggestions")
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts, f := newTestServer(t)
	get := func(query string) (int, map[string]interface{}) {
		resp, raw := doV1(t, "GET", ts.URL+"/api/v1/explain?"+query, "")
		var body map[string]interface{}
		_ = json.Unmarshal(raw, &body)
		return resp.StatusCode, body
	}

	code, body := get(fmt.Sprintf("entityId=%d&feature=Tom_Hanks:starring", f.E("Forrest_Gump")))
	if code != http.StatusOK || body["holds"] != true {
		t.Fatalf("member explain = %d %v", code, body)
	}
	if !strings.Contains(body["explanation"].(string), "matches") {
		t.Fatalf("explanation = %v", body["explanation"])
	}

	// Apollo_13 does not star Robin Wright but backs off via categories;
	// the entity may also be named, as in an op.
	code, body = get("entity=Apollo_13&feature=Robin_Wright:starring")
	if code != http.StatusOK || body["holds"] != false {
		t.Fatalf("backoff explain = %d %v", code, body)
	}
	if body["probability"].(float64) <= 0 {
		t.Fatal("backoff probability should be positive")
	}

	for _, bad := range []struct {
		query string
		kind  core.ErrKind
	}{
		{"entityId=abc&feature=Tom_Hanks:starring", core.KindInvalid},
		{"entityId=999999&feature=Tom_Hanks:starring", core.KindNotFound},
		{fmt.Sprintf("entityId=%d&feature=garbage", f.E("Apollo_13")), core.KindInvalid},
		{fmt.Sprintf("entityId=%d", f.E("Apollo_13")), core.KindInvalid},
	} {
		resp, raw := doV1(t, "GET", ts.URL+"/api/v1/explain?"+bad.query, "")
		if e := decodeV1Err(t, raw); e.Kind != bad.kind || resp.StatusCode != StatusOf(bad.kind) {
			t.Fatalf("explain %q = %d %s, want %s", bad.query, resp.StatusCode, e.Kind, bad.kind)
		}
	}
}

func TestStateEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, raw := doV1(t, "GET", ts.URL+"/api/v1/state", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var st StateV1DTO
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Description != "(empty query)" {
		t.Fatalf("initial description = %q", st.Description)
	}
}
