package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pivote/internal/apidto"
	"pivote/internal/core"
	"pivote/internal/expand"
	"pivote/internal/heatmap"
	"pivote/internal/live"
	"pivote/internal/rdf"
	"pivote/internal/search"
	"pivote/internal/semfeat"
	"pivote/internal/server"
	"pivote/internal/shard"
	"pivote/internal/topk"
	"pivote/internal/wire"
)

// selfSumBound is the benchmark's stated bound on the layer breakdown:
// along each request's critical path the layer self times, summed over
// the traced run, must equal the client spans to within this share.
// Self times are clamped at zero, so the sum exceeds the client time by
// however far the mirror replay overshoots the served work.
const selfSumBound = 0.25

// Span propagation headers: the client's request ID (its root span) and
// the span that caused the receiving hop.
const (
	hdrReq    = "X-Bench-Req"
	hdrParent = "X-Bench-Parent"
)

// span is one timed call. Logical spans are mirror re-executions: they
// belong to the request's tree but did not run inside their parent's
// interval.
type span struct {
	id, parent, req int64
	name            string
	start, end      time.Duration // since the tracer's epoch
	logical         bool
	gen             uint64 // client spans: the generation current at send
}

func (s *span) dur() time.Duration { return s.end - s.start }

// tracer records spans in memory for the traced run and keeps the
// mirror sessions that replay every op through the layer entry points.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	w     workload
	sh    *core.Shared // the single-process core the mirrors run on

	mu         sync.Mutex
	spans      []*span
	hops       map[int64][]hopCapture // routed: node answers per request
	hostShard  map[string]int
	hopBytes   int
	repairs    int
	mismatches int
	genSkips   int
	firstMis   string
}

type hopCapture struct {
	shard      int
	path, ctyp string
	body       []byte
}

func newTracer(w workload) *tracer {
	return &tracer{epoch: time.Now(), w: w, hops: map[int64][]hopCapture{}, hostShard: map[string]int{}}
}

func (t *tracer) open(name string, req, parent int64, logical bool) *span {
	id := t.ids.Add(1)
	if req == 0 {
		req = id
	}
	return &span{id: id, parent: parent, req: req, name: name, start: time.Since(t.epoch), logical: logical}
}

func (t *tracer) close(s *span) {
	s.end = time.Since(t.epoch)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) mismatch(format string, args ...any) {
	t.mu.Lock()
	t.mismatches++
	if t.firstMis == "" {
		t.firstMis = fmt.Sprintf(format, args...)
	}
	t.mu.Unlock()
}

// begin opens a client span and returns the headers that carry it.
func (t *tracer) begin() (*span, http.Header) {
	root := t.open("client", 0, 0, false)
	root.gen = t.sh.Generation().ID
	id := strconv.FormatInt(root.id, 10)
	return root, http.Header{hdrReq: {id}, hdrParent: {id}}
}

func spanRefOf(h http.Header) (req, parent int64) {
	req, _ = strconv.ParseInt(h.Get(hdrReq), 10, 64)
	parent, _ = strconv.ParseInt(h.Get(hdrParent), 10, 64)
	return req, parent
}

type spanKey struct{}

type spanRef struct{ req, id int64 }

// wrap spans a served handler (a single server, a shard node or the
// router). The router's span rides the request context to the hop
// transport, which is how hops find their parent.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, parent := spanRefOf(r.Header)
		if req == 0 {
			h.ServeHTTP(w, r)
			return
		}
		s := t.open(name, req, parent, false)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, spanRef{req, s.id})))
		t.close(s)
	})
}

// hopTransport spans every router→node request until its last body
// byte, tags it for the node's span, and keeps the node's answer for
// the wire and merge replay.
type hopTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (ht *hopTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ref, _ := r.Context().Value(spanKey{}).(spanRef)
	if ref.req == 0 {
		return ht.base.RoundTrip(r)
	}
	t := ht.t
	s := t.open("shard.hop", ref.req, ref.id, false)
	r = r.Clone(r.Context())
	r.Header.Set(hdrReq, strconv.FormatInt(ref.req, 10))
	r.Header.Set(hdrParent, strconv.FormatInt(s.id, 10))
	resp, err := ht.base.RoundTrip(r)
	if err != nil {
		t.close(s)
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t.close(s)
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	t.mu.Lock()
	t.hopBytes += len(body)
	if r.Method == http.MethodPost && r.URL.Path == "/api/v1/session" {
		t.repairs++
	}
	t.hops[ref.req] = append(t.hops[ref.req], hopCapture{
		shard: t.hostShard[r.URL.Host], path: r.URL.Path, ctyp: resp.Header.Get("Content-Type"), body: body})
	t.mu.Unlock()
	return resp, nil
}

// mirror is one client session replayed through core.Engine on the
// single-process core, so each op's layer calls can be timed with the
// inputs the engine used.
type mirror struct {
	eng        *core.Engine
	dirty      bool // mutated since the last evaluation
	lastGen    uint64
	lastFields core.Fields
}

func (t *tracer) newMirror() *mirror {
	return &mirror{eng: core.NewWithShared(t.sh, opts), dirty: true}
}

func fieldsOf(path string) core.Fields {
	u, err := url.Parse(path)
	if err != nil {
		return core.FieldsAll
	}
	f, err := core.ParseFields(u.Query().Get("include"))
	if err != nil {
		return core.FieldsAll
	}
	return f
}

// end closes the client span and replays the exchange on the mirror:
// the engine call, the stage calls it made, the encoding, and for the
// routed shape the node-answer decode, re-encode and merge. Every
// replayed page must equal the served bytes.
func (t *tracer) end(root *span, r *request, m *mirror, body []byte) {
	if root != nil {
		t.close(root)
	}
	ctx := context.Background()
	fields := fieldsOf(r.path)
	if r.kind == kindLoad {
		if _, _, err := m.eng.ReplaySessionCtx(ctx, r.body, fields); err != nil {
			t.mismatch("mirror session load: %v", err)
		}
		m.dirty = true
		return
	}
	var res *core.Result
	var err error
	var cs *span
	fresh := true
	switch r.kind {
	case kindOp:
		g := t.sh.Graph()
		ops := make([]core.Op, len(r.ops))
		for i, d := range r.ops {
			if ops[i], err = core.DecodeOp(g, d); err != nil {
				t.mismatch("mirror decode: %v", err)
				return
			}
		}
		cs = t.open("core.apply", root.req, root.id, true)
		res, _, err = m.eng.ApplyOps(ctx, ops, fields)
	default:
		fresh = m.dirty || m.lastFields != fields || m.lastGen != t.sh.Generation().ID
		name := "core.read_memo"
		if fresh {
			name = "core.read_fresh"
		}
		cs = t.open(name, root.req, root.id, true)
		res, err = m.eng.EvaluateCtx(ctx, fields)
	}
	t.close(cs)
	if err != nil {
		t.mismatch("mirror %s: %v", cs.name, err)
		return
	}
	m.dirty, m.lastFields, m.lastGen = false, fields, res.GenID
	if res.GenID != root.gen {
		// A compaction swap landed between the send and the replay: the
		// served answer and the mirror's are from different generations.
		t.mu.Lock()
		t.genSkips++
		t.mu.Unlock()
		return
	}
	if fresh && fields&(core.FieldEntities|core.FieldFeatures|core.FieldHeatmap) != 0 {
		t.replayStages(cs, m.eng, fields, res)
	}
	es := t.open("server.encode", root.req, root.id, true)
	var buf bytes.Buffer
	st := server.ToStateV1DTO(res.Graph(), res)
	if r.kind == kindOp {
		_ = json.NewEncoder(&buf).Encode(apidto.OpsResponse{Applied: len(r.ops), State: st})
	} else {
		_ = json.NewEncoder(&buf).Encode(st)
	}
	t.close(es)
	if !bytes.Equal(buf.Bytes(), body) {
		t.mismatch("mirror page differs from the served page (%s %s)", r.method, r.path)
	}
	if t.w.routed {
		t.replayMerge(root, r, body)
	}
}

// replayStages re-runs the evaluation's stages through the layers'
// public entry points, exactly as core.Engine calls them, each in its
// own span under the core span. The replayed pages must equal the
// engine's.
func (t *tracer) replayStages(parent *span, eng *core.Engine, fields core.Fields, res *core.Result) {
	gen := t.sh.Generation()
	if gen.ID != res.GenID {
		return
	}
	ctx := context.Background()
	o := opts
	fe := semfeat.NewEngineWithCache(gen.Features, o.Features)
	x := expand.New(fe, expand.Options{SameTypeOnly: true})
	q := eng.Session().Current()
	sp := func(name string, f func() error) {
		s := t.open(name, parent.req, parent.id, true)
		err := f()
		t.close(s)
		if err != nil {
			t.mismatch("replay %s: %v", name, err)
		}
	}
	var ents []expand.Ranked
	var feats []semfeat.Score
	switch {
	case len(q.Seeds) > 0 || len(q.Features) > 0:
		pinned := map[semfeat.Feature]bool{}
		for _, f := range q.Features {
			feats = append(feats, semfeat.Score{Feature: f, Label: fe.Label(f), R: fe.Relevance(f, q.Seeds), ExtentSize: fe.ExtentSize(f)})
			pinned[f] = true
		}
		if len(q.Seeds) > 0 {
			var ranked []semfeat.Score
			sp("semfeat.rank", func() (err error) { ranked, err = fe.RankCtx(ctx, q.Seeds, o.TopFeatures); return })
			for _, fs := range ranked {
				if !pinned[fs.Feature] {
					feats = append(feats, fs)
				}
			}
		}
		if len(feats) > o.TopFeatures {
			feats = feats[:o.TopFeatures]
		}
		if len(q.Features) > 0 {
			cands := conditionCandidates(fe, q.Seeds, q.Features)
			sp("expand.score", func() (err error) { ents, err = x.ScoreCandidatesCtx(ctx, cands, feats, o.TopEntities); return })
		} else {
			sp("expand.features", func() (err error) { ents, err = x.ExpandWithFeaturesCtx(ctx, q.Seeds, feats, o.TopEntities); return })
			if len(ents) == 0 {
				sp("expand.ppr", func() (err error) { ents, err = x.ExpandWithCtx(ctx, expand.MethodPPR, q.Seeds, o.TopEntities); return })
			}
		}
	case q.Keywords != "":
		var hits []search.Hit
		sp("search", func() (err error) {
			hits, err = gen.Searcher.SearchCtx(ctx, q.Keywords, o.TopEntities, o.SearchModel)
			return
		})
		seen := map[semfeat.Feature]bool{}
		for i, h := range hits {
			ents = append(ents, expand.Ranked{Entity: h.Entity, Name: h.Name, Score: h.Score})
			if i >= 3 { // core.Options.PseudoSeeds default
				continue
			}
			var ranked []semfeat.Score
			sp("semfeat.rank", func() (err error) { ranked, err = fe.RankCtx(ctx, []rdf.TermID{h.Entity}, o.TopFeatures); return })
			for _, fs := range ranked {
				if !seen[fs.Feature] {
					seen[fs.Feature] = true
					feats = append(feats, fs)
				}
			}
		}
		feats = topk.Select(feats, o.TopFeatures, func(a, b semfeat.Score) bool {
			if a.R != b.R {
				return a.R > b.R
			}
			if a.ExtentSize != b.ExtentSize {
				return a.ExtentSize < b.ExtentSize
			}
			return a.Label < b.Label
		})
	}
	var heat *heatmap.Matrix
	if fields&core.FieldHeatmap != 0 {
		sp("heatmap.build", func() error { heat = heatmap.Build(fe, ents, feats); return nil })
	}
	if fields&core.FieldEntities != 0 && !sameSlice(ents, res.Entities) {
		t.mismatch("replayed entity page differs from the engine's (query %s)", eng.DescribeQuery(q))
	}
	if fields&core.FieldFeatures != 0 && !sameSlice(feats, res.Features) {
		t.mismatch("replayed feature page differs from the engine's (query %s)", eng.DescribeQuery(q))
	}
	if fields&core.FieldHeatmap != 0 && !reflect.DeepEqual(heat, res.Heat) {
		t.mismatch("replayed heat map differs from the engine's (query %s)", eng.DescribeQuery(q))
	}
}

func sameSlice[T any](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// conditionCandidates intersects the pinned features' extents and
// drops the seeds, as the engine does for a structured query.
func conditionCandidates(fe *semfeat.Engine, seeds []rdf.TermID, fs []semfeat.Feature) []rdf.TermID {
	var inter []rdf.TermID
	for i, f := range fs {
		if i == 0 {
			inter = append([]rdf.TermID(nil), fe.Extent(f)...)
			continue
		}
		inter = rdf.IntersectSortedInto(inter[:0], inter, fe.Extent(f))
	}
	out := inter[:0]
	for _, c := range inter {
		isSeed := false
		for _, s := range seeds {
			isSeed = isSeed || c == s
		}
		if !isSeed {
			out = append(out, c)
		}
	}
	return out
}

// replayMerge decodes the nodes' last state-bearing answers, re-encodes
// them, and merges them the way the router does; the merge must give
// the served bytes.
func (t *tracer) replayMerge(root *span, r *request, body []byte) {
	t.mu.Lock()
	caps := t.hops[root.req]
	delete(t.hops, root.req)
	t.mu.Unlock()
	last := map[int]hopCapture{}
	for _, c := range caps {
		if c.path == "/api/v1/ops" || c.path == "/api/v1/state" {
			last[c.shard] = c
		}
	}
	if len(last) != 2 {
		t.mismatch("routed request saw %d state-bearing node answers, want 2", len(last))
		return
	}
	states := make([]apidto.StateV1DTO, 2)
	applied := 0
	for k := 0; k < 2; k++ {
		c := last[k]
		s := t.open("wire.decode", root.req, root.id, true)
		var err error
		isWire := strings.HasPrefix(c.ctyp, wire.ContentType)
		switch {
		case isWire && c.path == "/api/v1/ops":
			err = wire.DecodeOpsResponse(c.body, &applied, &states[k])
		case isWire:
			err = wire.DecodeState(c.body, &states[k])
		case c.path == "/api/v1/ops":
			var or apidto.OpsResponse
			err = json.Unmarshal(c.body, &or)
			applied, states[k] = or.Applied, or.State
		default:
			err = json.Unmarshal(c.body, &states[k])
		}
		t.close(s)
		if err != nil {
			t.mismatch("decode node %d answer: %v", k, err)
			return
		}
		s = t.open("wire.encode", root.req, root.id, true)
		_ = wire.AppendState(nil, &states[k])
		t.close(s)
	}
	s := t.open("shard.merge", root.req, root.id, true)
	merged, err := shard.MergeStates(states, opts.TopEntities)
	t.close(s)
	if err != nil {
		t.mismatch("merge: %v", err)
		return
	}
	var buf bytes.Buffer
	if r.kind == kindOp {
		_ = json.NewEncoder(&buf).Encode(apidto.OpsResponse{Applied: applied, State: merged})
	} else {
		_ = json.NewEncoder(&buf).Encode(merged)
	}
	if !bytes.Equal(buf.Bytes(), body) {
		t.mismatch("replayed merge differs from the served page (%s %s)", r.method, r.path)
	}
}

// inproc is a workload's shape hosted inside the benchmark process on
// real localhost listeners, built with the constructors cmd/pivote uses.
type inproc struct {
	entry  string
	ls     *live.Store
	closes []func()
	graphS float64
	coreS  float64
}

func (ip *inproc) close() {
	for i := len(ip.closes) - 1; i >= 0; i-- {
		ip.closes[i]()
	}
}

func buildInproc(t *tracer) *inproc {
	ip := &inproc{}
	t0 := time.Now()
	g := genGraph(t.w.scale).Graph
	ip.graphS = time.Since(t0).Seconds()
	serve := func(h http.Handler) string {
		srv := httptest.NewServer(h)
		ip.closes = append(ip.closes, srv.Close)
		return srv.URL
	}
	switch {
	case t.w.routed:
		part := shard.NewHashPartitioner(2)
		var urls []string
		for k := 0; k < 2; k++ {
			o := opts
			o.Partition = shard.OwnerOf(part, k)
			t1 := time.Now()
			node := server.NewMultiShared(core.NewShared(g, o), o, 64)
			ip.coreS += time.Since(t1).Seconds()
			u := serve(t.wrap("shard.node_handler", node.Handler()))
			t.hostShard[strings.TrimPrefix(u, "http://")] = k
			urls = append(urls, u)
		}
		t.sh = core.NewShared(g, opts) // the mirrors' unpartitioned core
		rt := shard.NewRouter(urls, shard.Options{
			TopEntities: opts.TopEntities,
			MaxSessions: 64,
			Transport:   &hopTransport{t: t, base: &http.Transport{MaxIdleConnsPerHost: 8}},
		})
		ip.entry = serve(t.wrap("router.handler", rt.Handler()))
	case t.w.live:
		t1 := time.Now()
		sh := core.NewLiveShared(g, opts)
		ip.coreS = time.Since(t1).Seconds()
		ip.closes = append(ip.closes, func() { _ = sh.Close() })
		t.sh, ip.ls = sh, sh.Live()
		ip.entry = serve(t.wrap("server.handler", server.NewMultiShared(sh, opts, 64).Handler()))
	default:
		t1 := time.Now()
		sh := core.NewShared(g, opts)
		ip.coreS = time.Since(t1).Seconds()
		t.sh = sh
		ip.entry = serve(t.wrap("server.handler", server.NewMultiShared(sh, opts, 64).Handler()))
	}
	return ip
}

// runTraced measures the per-layer breakdown: two launches of the
// end-to-end run's length untraced against the real binary (process
// figures, program counters, untraced throughput), then the rest of the
// window traced in-process.
func runTraced(ctx context.Context, cfg runConfig) (*report, error) {
	p, err := makePlan(cfg)
	if err != nil {
		return nil, err
	}
	// Two untraced launches as long as the end-to-end run's, so each
	// holds what one of those holds (on long-session-live, a compaction).
	perLaunch := cfg.seconds / setupRepeats
	rr, err := measureReal(ctx, cfg, p, 2, perLaunch)
	if err != nil {
		return nil, err
	}
	runtime.GC()

	t := newTracer(cfg.w)
	ip := buildInproc(t)
	defer ip.close()
	ctr := newExpandCounters()
	ppr0, stru0 := ctr.read()
	send := func(r *request) error {
		s := t.open("live.ingest", 0, 0, false)
		_, err := ip.ls.IngestNTriples(bytes.NewReader(r.body), nil)
		t.close(s)
		return err
	}
	runtime.GC()
	t0 := time.Now()
	cs := drive(cfg.w, p, ip.entry, t0.Add(cfg.seconds-2*perLaunch), []int{0, 1}, t, send)
	window := time.Since(t0)
	ppr1, stru1 := ctr.read()
	if cfg.w.live {
		cs.attempted += 2
		if _, _, err := ip.ls.CompactNow(); err != nil {
			cs.fail("post-run compaction: %v", err)
		} else if err := probeSearch(connClient(), ip.entry, p); err != nil {
			cs.fail("post-run search: %v", err)
		}
	}
	if err := t.dump(filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.w.name, cfg.seed))); err != nil {
		return nil, err
	}

	rep := &report{Metrics: map[string]metric{}}
	n := cs.sessionReqs
	rep.notef("workload %s seed %d (traced): %d session requests in %.3f s traced, %d in %.3f s untraced",
		cfg.w.name, cfg.seed, n, window.Seconds(), rr.stats.sessionReqs, rr.window.Seconds())
	a := t.analyze()
	layer := func(name, spanName string) {
		st := a.by[spanName]
		rep.set(name, st.meanMs(), "ms", st.n, "")
	}
	perOp := func(name, spanName string) {
		rep.set(name, mean(float64(a.by[spanName].n), n), "1/op", a.by[spanName].n, "")
	}
	handler := "server.handler"
	if cfg.w.routed {
		handler = "router.handler"
	}
	layer("server.handler_ms", handler)
	rep.set("server.transport_ms", a.transport.meanMs(), "ms", a.transport.n, "(client span − handler span)")
	layer("server.encode_ms", "server.encode")
	layer("core.apply_ms", "core.apply")
	rep.set("core.self_ms", a.coreSelf.meanMs(), "ms", a.coreSelf.n, "(fresh evaluations: core span − stage spans)")
	rep.set("core.memo_hit_frac", memoHitFrac(rr.deltas), "frac", int(rr.deltas.sum("pivote_eval_cache_total")), "(program counters, untraced launches)")
	rep.set("core.memo_reads", float64(a.by["core.read_memo"].n), "count", a.by["core.read_memo"].n, "")
	rep.set("core.fresh_reads", float64(a.by["core.read_fresh"].n), "count", a.by["core.read_fresh"].n, "")
	layer("core.memo_read_ms", "core.read_memo")
	layer("core.fresh_read_ms", "core.read_fresh")
	layer("search.ms", "search")
	perOp("search.calls_per_op", "search")
	layer("semfeat.rank_ms", "semfeat.rank")
	perOp("semfeat.rank_calls_per_op", "semfeat.rank")
	layer("expand.features_ms", "expand.features")
	layer("expand.score_ms", "expand.score")
	layer("expand.ppr_ms", "expand.ppr")
	structured := a.by["expand.features"].n + a.by["expand.score"].n
	pprFrac := mean(float64(a.by["expand.ppr"].n), structured)
	rep.set("expand.ppr_frac", pprFrac, "frac", structured, "(PPR fallbacks per structured evaluation)")
	layer("heatmap.build_ms", "heatmap.build")
	rep.set("session.timeline_len", mean(cs.timelineSum, n), "count", n, "(timeline entries per response)")
	layer("shard.hop_ms", "shard.hop")
	perOp("shard.hops_per_op", "shard.hop")
	layer("shard.node_handler_ms", "shard.node_handler")
	layer("shard.merge_ms", "shard.merge")
	rep.set("shard.retries", rr.deltas.get("pivote_router_retries_total", ""), "count", 1, "(router /metrics, untraced launches)")
	rep.set("shard.gen_rereads", rr.deltas.get("pivote_router_genreread_total", ""), "count", 1, "(router /metrics, untraced launches)")
	rep.set("shard.repairs", float64(t.repairs), "count", t.repairs, "(POST /api/v1/session hops)")
	layer("wire.encode_ms", "wire.encode")
	layer("wire.decode_ms", "wire.decode")
	rep.set("wire.hop_kb_per_op", mean(float64(t.hopBytes)/1024, n), "KiB", n, "")
	layer("live.ingest_ms", "live.ingest")
	compactions := rr.deltas.get("pivote_live_compaction_seconds_count", "")
	rep.set("live.compact_ms", mean(rr.deltas.get("pivote_live_compaction_seconds_sum", "")*1000, int(compactions)), "ms", int(compactions), "(live.Store.CompactNow, program histogram, untraced launches)")
	rep.set("live.swaps", rr.deltas.get("pivote_live_swaps_total", ""), "count", 1, "(program counter, untraced launches)")
	rep.set("setup.graph_s", ip.graphS, "s", 1, "(synth.Generate)")
	rep.set("setup.core_s", ip.coreS, "s", 1, "(core.NewShared / NewLiveShared)")
	for _, role := range []string{"server", "router", "node"} {
		rep.set("proc.cpu_ms_per_op."+role, mean(rr.cpuMs[role], rr.stats.sessionReqs), "ms", rr.stats.sessionReqs, "(/proc, untraced launches)")
		rep.set("proc.rss_mb."+role, rr.rssMiB[role], "MiB", 1, "(VmHWM, untraced launches)")
	}
	untraced := float64(rr.stats.sessionReqs) / rr.window.Seconds()
	traced := float64(n) / window.Seconds()
	rep.set("trace.overhead_frac", 1-ratio(traced, untraced), "frac", n,
		fmt.Sprintf("(traced %.1f ops/s vs untraced %.1f ops/s)", traced, untraced))
	rep.set("trace.selfsum_frac", ratio(a.selfSum, a.clientSum), "frac", a.trees, fmt.Sprintf("(bound ±%g)", selfSumBound))
	rep.set("trace.mirror_mismatches", float64(t.mismatches), "count", n, "")
	rep.set("trace.gen_skips", float64(t.genSkips), "count", n, "(replays skipped: a swap landed mid-request)")
	progShare := mean(float64(ppr1-ppr0), stru1-stru0)
	rep.set("xcheck.ppr_frac", progShare, "frac", stru1-stru0, "(program counters over the traced window)")

	ok := cs.failed == 0 && n > 0 && t.mismatches == 0 && a.trees > 0 &&
		math.Abs(ratio(a.selfSum, a.clientSum)-1) <= selfSumBound
	if !ok && t.firstMis != "" {
		rep.notef("first mirror mismatch: %s", t.firstMis)
	}
	// The routed nodes fall back per partition, so their counters are
	// not the single-process share; elsewhere the two must agree.
	if !cfg.w.routed && math.Abs(progShare-pprFrac) > 0.01 {
		ok = false
		rep.notef("PPR share disagrees: program %.4f, traced %.4f", progShare, pprFrac)
	}
	if cfg.w.live && pprFrac != 0 {
		ok = false
		rep.notef("expand.ppr_frac must be 0 on %s", cfg.w.name)
	}
	if !cfg.w.live && cs.timelineSum != 0 {
		ok = false
	}
	if cs.firstErr != "" {
		rep.notef("first failure: %s", cs.firstErr)
	}
	rep.Correct = ok && rr.stats.failed == 0
	rep.Attempted = cs.attempted + rr.stats.attempted
	rep.Failed = cs.failed + rr.stats.failed
	return rep, nil
}

// spanStat aggregates durations.
type spanStat struct {
	n   int
	sum time.Duration
}

func (s *spanStat) add(d time.Duration) { s.n++; s.sum += d }

func (s spanStat) meanMs() float64 {
	return mean(float64(s.sum)/float64(time.Millisecond), s.n)
}

type analysis struct {
	by                 map[string]spanStat
	transport          spanStat
	coreSelf           spanStat
	selfSum, clientSum float64
	trees              int
}

var stageSpans = map[string]bool{
	"search": true, "semfeat.rank": true, "expand.features": true,
	"expand.score": true, "expand.ppr": true, "heatmap.build": true,
}

// analyze aggregates the spans per name and checks, request by request,
// that the layer self times along the critical path add up to the
// client span.
func (t *tracer) analyze() analysis {
	a := analysis{by: map[string]spanStat{}}
	byReq := map[int64][]*span{}
	for _, s := range t.spans {
		st := a.by[s.name]
		st.add(s.dur())
		a.by[s.name] = st
		byReq[s.req] = append(byReq[s.req], s)
	}
	for _, spans := range byReq {
		children := map[int64][]*span{}
		var root *span
		for _, s := range spans {
			if s.name == "client" {
				root = s
			} else {
				children[s.parent] = append(children[s.parent], s)
			}
		}
		if root == nil {
			continue
		}
		var handler, core *span
		var logical []*span
		for _, c := range children[root.id] {
			switch {
			case !c.logical:
				handler = c
			case strings.HasPrefix(c.name, "core."):
				core = c
				logical = append(logical, c)
			default:
				logical = append(logical, c)
			}
		}
		if handler == nil || core == nil {
			continue // a memo read after a failure, or a skipped replay
		}
		var stages time.Duration
		for _, s := range children[core.id] {
			if stageSpans[s.name] {
				stages += s.dur()
			}
		}
		if core.name != "core.read_memo" {
			a.coreSelf.add(core.dur() - stages)
		}
		clamp := func(d time.Duration) float64 { return math.Max(0, d.Seconds()) }
		a.transport.add(root.dur() - handler.dur())
		total := clamp(root.dur()-handler.dur()) + clamp(core.dur()-stages) + stages.Seconds()
		var onRouter time.Duration // logical work the handler itself does
		var wireEnc []time.Duration
		for _, l := range logical {
			switch l.name {
			case "wire.encode":
				wireEnc = append(wireEnc, l.dur())
			case "server.encode", "wire.decode", "shard.merge":
				onRouter += l.dur()
			}
		}
		total += onRouter.Seconds()
		if t.w.routed {
			// Critical path: the hop that finished last, and its node.
			var crit *span
			for _, h := range children[handler.id] {
				if h.name == "shard.hop" && (crit == nil || h.end > crit.end) {
					crit = h
				}
			}
			if crit == nil || len(children[crit.id]) == 0 || len(wireEnc) == 0 {
				continue
			}
			node := children[crit.id][0]
			enc := wireEnc[0]
			total += clamp(handler.dur()-crit.dur()-onRouter) + clamp(crit.dur()-node.dur()) +
				clamp(node.dur()-core.dur()-enc) + enc.Seconds()
		} else {
			total += clamp(handler.dur() - core.dur() - onRouter)
		}
		a.selfSum += total
		a.clientSum += root.dur().Seconds()
		a.trees++
	}
	return a
}

// dump writes every span as one JSON object per line.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(bw, `{"id":%d,"parent":%d,"req":%d,"name":%q,"start_us":%d,"end_us":%d,"logical":%t}`+"\n",
			s.id, s.parent, s.req, s.name, s.start.Microseconds(), s.end.Microseconds(), s.logical)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
