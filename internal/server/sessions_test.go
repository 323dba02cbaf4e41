package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"strings"
	"testing"

	"pivote/internal/core"
	"pivote/internal/kgtest"
)

func newMultiServer(t *testing.T, maxSessions int) *httptest.Server {
	t.Helper()
	f := kgtest.Build()
	m := NewMulti(f.Graph, core.Options{TopEntities: 5, TopFeatures: 5}, maxSessions)
	ts := httptest.NewServer(m.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func clientWithJar(t *testing.T) *http.Client {
	t.Helper()
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	return &http.Client{Jar: jar}
}

func postQuery(t *testing.T, c *http.Client, url, keywords string) StateV1DTO {
	t.Helper()
	raw, _ := json.Marshal(map[string]interface{}{
		"ops": []core.OpDTO{{Op: "submit", Keywords: keywords}},
	})
	resp, err := c.Post(url+"/api/v1/ops", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out OpsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.State
}

func getState(t *testing.T, c *http.Client, url string) StateV1DTO {
	t.Helper()
	resp, err := c.Get(url + "/api/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StateV1DTO
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestMultiSessionIsolation(t *testing.T) {
	ts := newMultiServer(t, 8)
	alice := clientWithJar(t)
	bob := clientWithJar(t)

	postQuery(t, alice, ts.URL, "forrest gump")
	postQuery(t, bob, ts.URL, "apollo")

	aliceState := getState(t, alice, ts.URL)
	bobState := getState(t, bob, ts.URL)
	if !strings.Contains(aliceState.Description, "forrest gump") {
		t.Fatalf("alice sees %q", aliceState.Description)
	}
	if !strings.Contains(bobState.Description, "apollo") {
		t.Fatalf("bob sees %q", bobState.Description)
	}
	if len(aliceState.Timeline) != 1 || len(bobState.Timeline) != 1 {
		t.Fatal("timelines leaked between sessions")
	}
}

func TestMultiSessionCookiePersistence(t *testing.T) {
	ts := newMultiServer(t, 8)
	c := clientWithJar(t)
	postQuery(t, c, ts.URL, "gump")
	postQuery(t, c, ts.URL, "apollo")
	st := getState(t, c, ts.URL)
	if len(st.Timeline) != 2 {
		t.Fatalf("timeline = %d actions, want 2 (same session)", len(st.Timeline))
	}
}

func TestMultiSessionEviction(t *testing.T) {
	f := kgtest.Build()
	m := NewMulti(f.Graph, core.Options{}, 2)
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()
	for i := 0; i < 5; i++ {
		c := clientWithJar(t)
		postQuery(t, c, ts.URL, "gump")
	}
	if got := m.SessionCount(); got > 2 {
		t.Fatalf("sessions = %d, want <= 2", got)
	}
}

func TestSessionSaveLoadEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	applyOps(t, ts.URL,
		core.OpDTO{Op: "submit", Keywords: "forrest gump"},
		core.OpDTO{Op: "add-entity", Entity: "Forrest_Gump"})

	resp, saved := doV1(t, "GET", ts.URL+"/api/v1/session", "")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(saved), "Forrest_Gump") {
		t.Fatalf("saved session lacks the seed (%d): %s", resp.StatusCode, saved)
	}

	// Load into a fresh server.
	ts2, _ := newTestServer(t)
	resp, raw := doV1(t, "POST", ts2.URL+"/api/v1/session", string(saved))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load status = %d: %s", resp.StatusCode, raw)
	}
	var st StateV1DTO
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(st.Description, "Forrest Gump") {
		t.Fatalf("loaded description = %q", st.Description)
	}
	if len(st.Timeline) != 2 {
		t.Fatalf("loaded timeline = %d actions", len(st.Timeline))
	}

	// Malformed load is rejected and leaves the loaded session intact.
	resp, raw = doV1(t, "POST", ts2.URL+"/api/v1/session", "{bad")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad load status = %d", resp.StatusCode)
	}
	decodeV1Err(t, raw)
	_, after := doV1(t, "GET", ts2.URL+"/api/v1/session", "")
	if !bytes.Equal(after, saved) {
		t.Fatalf("failed load changed the session:\n%s", after)
	}
}
