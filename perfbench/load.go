package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// writerPeriod paces the long-session-live writer: its batches go out
// in the first 2.2 s of a launch, so the compaction they trigger ends
// inside a 5-second launch window.
const writerPeriod = 200 * time.Millisecond

// clientStats is what one load connection observed.
type clientStats struct {
	lat         latencies // session requests: send → last body byte
	bodyBytes   float64   // session response bytes
	sessionReqs int
	timelineSum float64 // timeline entries over session responses
	attempted   int     // every request sent, loads and ingests included
	failed      int
	firstErr    string
	ingest      latencies
	// refPPR and refStructured add up the expansions the reference
	// booked for the completed requests.
	refPPR, refStructured int
}

func (cs *clientStats) fail(format string, args ...any) {
	cs.failed++
	if cs.firstErr == "" {
		cs.firstErr = fmt.Sprintf(format, args...)
	}
}

func (cs *clientStats) merge(o *clientStats) {
	cs.lat.merge(&o.lat)
	cs.bodyBytes += o.bodyBytes
	cs.sessionReqs += o.sessionReqs
	cs.timelineSum += o.timelineSum
	cs.attempted += o.attempted
	cs.failed += o.failed
	if cs.firstErr == "" {
		cs.firstErr = o.firstErr
	}
	cs.ingest.merge(&o.ingest)
	cs.refPPR += o.refPPR
	cs.refStructured += o.refStructured
}

// connClient is an HTTP client that holds exactly one connection: the
// load process drives each shape over at most two.
func connClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// exchange sends one request and reads the whole body; d runs from
// just before the send to the last body byte.
func exchange(c *http.Client, base string, r *request, cookie string, hdr http.Header) (status int, body []byte, setCookie string, d time.Duration, err error) {
	var rd io.Reader
	if r.body != nil {
		rd = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, base+r.path, rd)
	if err != nil {
		return 0, nil, "", 0, err
	}
	if r.body != nil {
		ct := "application/json"
		if r.kind == kindIngest {
			ct = "application/n-triples"
		}
		req.Header.Set("Content-Type", ct)
	}
	if cookie != "" {
		req.Header.Set("Cookie", cookie)
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, "", time.Since(t0), err
	}
	body, err = io.ReadAll(resp.Body)
	d = time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, "", d, err
	}
	for _, ck := range resp.Cookies() {
		if ck.Name == "pivote_session" {
			setCookie = ck.Name + "=" + ck.Value
		}
	}
	return resp.StatusCode, body, setCookie, d, nil
}

var stepKey = []byte(`{"step":`)

// timelineLen counts the timeline entries of a state-bearing body and
// checks they are numbered 1..n, without decoding the (large) body.
func timelineLen(body []byte) (int, error) {
	n := bytes.Count(body, stepKey)
	if n == 0 {
		return 0, nil
	}
	last := bytes.LastIndex(body, stepKey) + len(stepKey)
	end := last
	for end < len(body) && body[end] >= '0' && body[end] <= '9' {
		end++
	}
	step, err := strconv.Atoi(string(body[last:end]))
	if err != nil {
		return 0, fmt.Errorf("timeline: bad step number: %w", err)
	}
	if step != n {
		return 0, fmt.Errorf("timeline: %d entries but last step %d", n, step)
	}
	return n, nil
}

// check validates one answer: byte equality with the reference when the
// plan has one, otherwise 2xx, valid JSON and the expected timeline
// length (the session's age).
func check(r *request, status int, body []byte) error {
	if r.want != nil {
		if status != http.StatusOK {
			return fmt.Errorf("%s %s: status %d: %.200s", r.method, r.path, status, body)
		}
		if !bytes.Equal(body, r.want) {
			return fmt.Errorf("%s %s: body differs from the single-process reference (%d vs %d bytes)",
				r.method, r.path, len(body), len(r.want))
		}
		return nil
	}
	if status < 200 || status > 299 {
		return fmt.Errorf("%s %s: status %d: %.200s", r.method, r.path, status, body)
	}
	if !json.Valid(body) {
		return fmt.Errorf("%s %s: invalid JSON", r.method, r.path)
	}
	if r.kind == kindIngest {
		return nil
	}
	n, err := timelineLen(body)
	if err != nil {
		return err
	}
	if n != r.tlLen {
		return fmt.Errorf("%s %s: timeline length %d, session age %d", r.method, r.path, n, r.tlLen)
	}
	return nil
}

// sessionLoop is one closed-loop explorer: it runs the plan's sessions
// *next, *next+stride, ... (cycling), each in a fresh cookie session,
// sending a request only after the previous answer arrived, until the
// deadline. *next is left at the first session not started.
func sessionLoop(c *http.Client, base string, sessions [][]request, next *int, stride int, deadline time.Time, tr *tracer) *clientStats {
	cs := &clientStats{}
	for ; time.Now().Before(deadline); *next += stride {
		script := sessions[*next%len(sessions)]
		cookie := ""
		var ms *mirror
		if tr != nil {
			ms = tr.newMirror()
		}
		for i := range script {
			if !time.Now().Before(deadline) {
				break
			}
			r := &script[i]
			var hdr http.Header
			var root *span
			if tr != nil && r.session() {
				root, hdr = tr.begin()
			}
			cs.attempted++
			status, body, setCookie, d, err := exchange(c, base, r, cookie, hdr)
			if tr != nil && err == nil && status == http.StatusOK {
				tr.end(root, r, ms, body)
			}
			if setCookie != "" {
				cookie = setCookie
			}
			if err == nil {
				err = check(r, status, body)
			}
			if err != nil {
				cs.fail("%v", err)
				if tr != nil {
					// The mirror no longer tracks the served session.
					break
				}
				continue
			}
			if r.session() {
				cs.lat.add(d)
				cs.bodyBytes += float64(len(body))
				cs.sessionReqs++
				cs.timelineSum += float64(r.tlLen)
				cs.refPPR += r.ppr
				cs.refStructured += r.structured
			}
		}
	}
	return cs
}

// writerLoop posts the plan's N-Triples batches on a fixed schedule,
// stopping early at the deadline; send performs one batch and returns
// its error.
func writerLoop(batches []request, deadline time.Time, send func(*request) error) *clientStats {
	cs := &clientStats{}
	t0 := time.Now()
	for k := 0; k < len(batches); k++ {
		due := t0.Add(time.Duration(k) * writerPeriod)
		if !due.Before(deadline) {
			break
		}
		time.Sleep(time.Until(due))
		cs.attempted++
		s := time.Now()
		err := send(&batches[k])
		cs.ingest.add(time.Since(s))
		if err != nil {
			cs.fail("ingest batch %d: %v", k, err)
		}
	}
	return cs
}

// httpSend posts a writer batch to a served shape.
func httpSend(c *http.Client, base string) func(*request) error {
	return func(r *request) error {
		status, body, _, _, err := exchange(c, base, r, "", nil)
		if err != nil {
			return err
		}
		return check(r, status, body)
	}
}
