package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"pivote/internal/core"
	"pivote/internal/kgtest"
)

// TestMultiConcurrentSessions drives a Multi front end from many
// concurrent clients: several distinct sessions issuing mutating
// operations plus read-only traffic hammering one shared session. Under
// -race this verifies the shared read core (graph, search index, feature
// cache) and the per-session RWMutex discipline: reads proceed
// concurrently, mutations serialize, and nothing needs a global lock.
func TestMultiConcurrentSessions(t *testing.T) {
	fx := kgtest.Build()
	m := NewMulti(fx.Graph, core.Options{}, 32)
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	newClient := func() *http.Client {
		return &http.Client{Jar: &cookieJar{}}
	}

	// apply POSTs one op to /api/v1/ops.
	apply := func(c *http.Client, op core.OpDTO) error {
		raw, _ := json.Marshal(map[string]interface{}{"ops": []core.OpDTO{op}})
		resp, err := c.Post(ts.URL+"/api/v1/ops", "application/json", bytes.NewReader(raw))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("POST /api/v1/ops %s: status %d", op.Op, resp.StatusCode)
		}
		return nil
	}
	get := func(c *http.Client, path string) error {
		resp, err := c.Get(ts.URL + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return nil
	}

	const writers = 4
	const readers = 4
	const iters = 15

	// One shared session exercised by all the readers while one writer
	// mutates it.
	sharedClient := newClient()
	if err := apply(sharedClient, core.OpDTO{Op: "submit", Keywords: "forrest"}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers+1)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient() // distinct cookie → distinct session
			for i := 0; i < iters; i++ {
				if err := apply(c, core.OpDTO{Op: "submit", Keywords: "hanks"}); err != nil {
					errs <- err
					return
				}
				if err := apply(c, core.OpDTO{Op: "add-entity", Entity: "Forrest_Gump"}); err != nil {
					errs <- err
					return
				}
				if err := apply(c, core.OpDTO{Op: "pivot", Entity: "Tom_Hanks"}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}

	wg.Add(1)
	go func() { // writer on the shared session
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := apply(sharedClient, core.OpDTO{Op: "add-entity", Entity: "Apollo_13"}); err != nil {
				errs <- err
				return
			}
			if err := apply(sharedClient, core.OpDTO{Op: "remove-entity", Entity: "Apollo_13"}); err != nil {
				errs <- err
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for _, p := range []string{
					"/api/v1/state", "/api/v1/heatmap.svg", "/api/v1/path.svg", "/api/v1/path.dot",
					"/api/v1/suggest?q=gump", "/api/v1/profile?entity=Forrest_Gump",
					"/api/v1/explain?entity=Apollo_13&feature=Tom_Hanks:starring",
				} {
					if err := get(sharedClient, p); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if n := m.SessionCount(); n < 2 {
		t.Fatalf("expected multiple sessions, got %d", n)
	}
}
