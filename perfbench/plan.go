package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"

	"pivote/internal/apidto"
	"pivote/internal/core"
	"pivote/internal/expand"
	"pivote/internal/kg"
	"pivote/internal/obs"
	"pivote/internal/rdf"
	"pivote/internal/semfeat"
	"pivote/internal/server"
	"pivote/internal/synth"
)

// reqKind classifies what a request is and how it is checked.
type reqKind uint8

const (
	kindOp     reqKind = iota // POST /api/v1/ops — a session request
	kindState                 // GET /api/v1/state — a session request
	kindLoad                  // POST /api/v1/session — ages a long session
	kindIngest                // POST /api/v1/ingest — the paced writer
)

// request is one precomputed HTTP request plus what its answer must be.
type request struct {
	kind   reqKind
	method string
	path   string // with query
	body   []byte
	// want is the single-process reference body; responses must equal it
	// byte for byte. Nil selects the structural check (2xx, valid JSON,
	// timeline length == tlLen).
	want  []byte
	tlLen int
	// ops are the decoded ops of a kindOp request, for the traced mirror.
	ops []core.OpDTO
	// ppr and structured count the expansions the reference ran for
	// this request: the expected contribution to the program's own
	// pivote_expand_seconds counters.
	ppr, structured int
}

func (r *request) session() bool { return r.kind == kindOp || r.kind == kindState }

// plan is every input of one run, computed before timing starts.
type plan struct {
	sessions [][]request // closed-loop session scripts, cycled by the clients
	batches  []request   // writer batches (long-session-live only)
	// probeKeywords must find probeName after the post-run compaction
	// (long-session-live only): proof that the writer's films landed.
	probeKeywords, probeName string
}

const (
	exploreInclude  = "entities,features,heatmap"
	exploreSessions = 96 // distinct sessions per seed
	exploreCycles   = 2  // cycles per explore session
	liveTemplates   = 24 // distinct keyword cycles per seed
	liveSessions    = 12 // distinct aged sessions per seed
	liveAgeCycles   = 285
	liveCycles      = 4  // measured cycles per aged session
	batchFilms      = 40 // films per writer batch (5 triples each)
	// writerBatches is the writer's volume per launch: 11 batches of 200
	// triples cross the 2048-triple compaction threshold exactly once,
	// so every launch holds one compaction instead of a timing-dependent
	// one or two.
	writerBatches     = 11
	maxSessionRetries = 64
)

// opts are the engine options cmd/pivote runs with by default.
var opts = core.Options{TopEntities: 20, TopFeatures: 15}

// graphSeed is the synthetic graph's seed: cmd/pivote's default, so the
// benchmark's reference graph and the served graph are the same. The
// benchmark's own --seed varies the sessions, never the graph.
const graphSeed = 42

func genGraph(scale int) *synth.Result {
	cfg := synth.Scaled(scale)
	cfg.Seed = graphSeed
	return synth.Generate(cfg)
}

// refSession drives the in-process single-process reference, one
// cookie-keyed session.
type refSession struct {
	h      http.Handler
	cookie string
}

func (rs *refSession) do(method, path string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if rs.cookie != "" {
		req.Header.Set("Cookie", rs.cookie)
	}
	rec := httptest.NewRecorder()
	rs.h.ServeHTTP(rec, req)
	if c := rec.Result().Cookies(); len(c) > 0 {
		rs.cookie = c[0].Name + "=" + c[0].Value
	}
	return rec.Code, rec.Body.Bytes()
}

// expandCounters reads the in-process expansion counters (the same
// series cmd/pivote exports), so the reference run can book how many
// structured evaluations and PPR fallbacks each request costs.
type expandCounters struct{ ppr, feats, score *obs.Histogram }

func newExpandCounters() expandCounters {
	h := func(m string) *obs.Histogram {
		return obs.Default.Histogram("pivote_expand_seconds",
			"Candidate expansion latency by entry point.", obs.L("method", m))
	}
	return expandCounters{ppr: h("ppr"), feats: h("features"), score: h("score")}
}

func (c expandCounters) read() (ppr, structured int) {
	return int(c.ppr.Count()), int(c.feats.Count() + c.score.Count())
}

func opsBody(ops ...core.OpDTO) []byte {
	b, _ := json.Marshal(struct {
		Ops []core.OpDTO `json:"ops"`
	}{ops}) // a struct of strings cannot fail to marshal
	return b
}

// keywordPool lists lower-cased names of the graph's films, actors and
// directors: what an explorer would type.
func keywordPool(res *synth.Result) []string {
	g := res.Graph
	var kws []string
	for _, ids := range [][]rdf.TermID{res.Manifest.Films, res.Manifest.Actors, res.Manifest.Directors} {
		for _, id := range ids {
			kws = append(kws, strings.ToLower(g.Name(id)))
		}
	}
	return kws
}

// explorePlan builds the explore session scripts by driving the
// reference. Each session runs exploreCycles of: submit → add top →
// add next → pin a recommended feature → read state → pivot on the
// feature's anchor → revisit step 1. A session whose reference run hits
// any non-200 answer (e.g. an anchor that is not an entity) is
// discarded and redrawn, so the timed run sees no failing operation.
func explorePlan(res *synth.Result, seed int64, n int) (*plan, error) {
	sh := core.NewShared(res.Graph, opts)
	h := server.NewMultiShared(sh, opts, 4*n).Handler()
	rng := rand.New(rand.NewSource(seed))
	kws := keywordPool(res)
	ctr := newExpandCounters()
	fb := newFallbackProbe(sh)
	p := &plan{}
	opsPath := "/api/v1/ops?include=" + exploreInclude
	statePath := "/api/v1/state?include=" + exploreInclude
	for tries := 0; len(p.sessions) < n; tries++ {
		if tries > n*maxSessionRetries {
			return nil, fmt.Errorf("explore: only %d of %d sessions without failures", len(p.sessions), n)
		}
		rs := &refSession{h: h}
		var script []request
		step := func(kind reqKind, ops ...core.OpDTO) (*apidto.StateV1DTO, bool) {
			method, path, body := http.MethodGet, statePath, []byte(nil)
			if kind == kindOp {
				method, path, body = http.MethodPost, opsPath, opsBody(ops...)
			}
			p0, s0 := ctr.read()
			code, out := rs.do(method, path, body)
			p1, s1 := ctr.read()
			if code != http.StatusOK {
				return nil, false
			}
			var st apidto.StateV1DTO
			if kind == kindOp {
				var or apidto.OpsResponse
				if json.Unmarshal(out, &or) != nil {
					return nil, false
				}
				st = or.State
			} else if json.Unmarshal(out, &st) != nil {
				return nil, false
			}
			script = append(script, request{kind: kind, method: method, path: path, body: body,
				want: append([]byte(nil), out...), ops: ops, ppr: p1 - p0, structured: s1 - s0})
			return &st, true
		}
		ok := true
		for c := 0; c < exploreCycles && ok; c++ {
			// Stratified pivots: the first cycle's pivot takes the PPR
			// fallback and every later one does not, so each seed runs the
			// same PPR share instead of a binomial draw of it.
			ok = exploreCycle(rng, kws, step, c == 0, fb.fallsBack)
			if ok && script[len(script)-2].ppr != boolInt(c == 0) {
				ok = false
			}
		}
		if ok {
			p.sessions = append(p.sessions, script)
		}
	}
	return p, nil
}

func exploreCycle(rng *rand.Rand, kws []string, step func(reqKind, ...core.OpDTO) (*apidto.StateV1DTO, bool),
	wantPPR bool, fallsBack func(rdf.TermID) bool) bool {
	st, ok := step(kindOp, core.OpDTO{Op: "submit", Keywords: kws[rng.Intn(len(kws))]})
	if !ok || len(st.Entities) < 2 {
		return false
	}
	top, next := st.Entities[0].ID, st.Entities[1].ID
	if _, ok = step(kindOp, core.OpDTO{Op: "add-entity", EntityID: top}); !ok {
		return false
	}
	st, ok = step(kindOp, core.OpDTO{Op: "add-entity", EntityID: next})
	if !ok {
		return false
	}
	var cands []apidto.FeatureDTO
	for _, f := range st.Features {
		if f.AnchorID != top && f.AnchorID != next && len(cands) < 3 &&
			fallsBack(rdf.TermID(f.AnchorID)) == wantPPR {
			cands = append(cands, f)
		}
	}
	if len(cands) == 0 {
		return false
	}
	f := cands[rng.Intn(len(cands))]
	if _, ok = step(kindOp, core.OpDTO{Op: "add-feature", Feature: f.Label}); !ok {
		return false
	}
	if _, ok = step(kindState); !ok {
		return false
	}
	if _, ok = step(kindOp, core.OpDTO{Op: "pivot", EntityID: f.AnchorID}); !ok {
		return false
	}
	_, ok = step(kindOp, core.OpDTO{Op: "revisit", Step: 1})
	return ok
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// fallbackProbe predicts whether pivoting onto an entity takes the PPR
// fallback, without running the walk: the engine falls back exactly
// when seed-only expansion over the entity's top features finds no
// candidate.
type fallbackProbe struct {
	fe *semfeat.Engine
	x  *expand.Expander
}

func newFallbackProbe(sh *core.Shared) *fallbackProbe {
	fe := semfeat.NewEngineWithCache(sh.FeatureCache(), opts.Features)
	return &fallbackProbe{fe: fe, x: expand.New(fe, expand.Options{SameTypeOnly: true})}
}

func (fb *fallbackProbe) fallsBack(e rdf.TermID) bool {
	seeds := []rdf.TermID{e}
	return len(fb.x.ExpandWithFeatures(seeds, fb.fe.Rank(seeds, opts.TopFeatures), opts.TopEntities)) == 0
}

// liveTemplate is one keyword cycle of a long session: submit kw → pin
// f1 → add entity → pin f2 → unpin f1 → lookup → revisit the submit.
// No pivot and no seed-only query, so the PPR fallback cannot run.
type liveTemplate struct {
	kw        string
	f1, f2    string
	ent, look uint32
}

func (t liveTemplate) ops(submitStep int) []core.OpDTO {
	return []core.OpDTO{
		{Op: "submit", Keywords: t.kw},
		{Op: "add-feature", Feature: t.f1},
		{Op: "add-entity", EntityID: t.ent},
		{Op: "add-feature", Feature: t.f2},
		{Op: "remove-feature", Feature: t.f1},
		{Op: "lookup", EntityID: t.look},
		{Op: "revisit", Step: submitStep},
	}
}

// livePlan builds the long-session-live inputs: aged session scripts
// and the writer's N-Triples batches.
func livePlan(res *synth.Result, seed int64) (*plan, error) {
	sh := core.NewShared(res.Graph, opts)
	h := server.NewMultiShared(sh, opts, 4).Handler()
	rng := rand.New(rand.NewSource(seed))
	kws := keywordPool(res)
	var tpls []liveTemplate
	for tries := 0; len(tpls) < liveTemplates; tries++ {
		if tries > liveTemplates*maxSessionRetries {
			return nil, fmt.Errorf("live: only %d of %d keyword cycles", len(tpls), liveTemplates)
		}
		rs := &refSession{h: h}
		kw := kws[rng.Intn(len(kws))]
		code, out := rs.do(http.MethodPost, "/api/v1/ops?include=entities,features",
			opsBody(core.OpDTO{Op: "submit", Keywords: kw}))
		var or apidto.OpsResponse
		if code != http.StatusOK || json.Unmarshal(out, &or) != nil ||
			len(or.State.Entities) < 2 || len(or.State.Features) < 2 {
			continue
		}
		st := or.State
		i := rng.Intn(len(st.Features) - 1)
		tpls = append(tpls, liveTemplate{
			kw: kw,
			f1: st.Features[i].Label, f2: st.Features[i+1].Label,
			ent: st.Entities[0].ID, look: st.Entities[1].ID,
		})
	}

	p := &plan{}
	for s := 0; s < liveSessions; s++ {
		var aging []core.OpDTO
		for c := 0; c < liveAgeCycles; c++ {
			aging = append(aging, tpls[rng.Intn(len(tpls))].ops(len(aging)+1)...)
		}
		file, _ := json.Marshal(struct {
			Version int          `json:"version"`
			Ops     []core.OpDTO `json:"ops"`
		}{2, aging}) // plain data cannot fail to marshal
		age := len(aging)
		script := []request{{kind: kindLoad, method: http.MethodPost, path: "/api/v1/session", body: file, tlLen: age}}
		for c := 0; c < liveCycles; c++ {
			for _, op := range tpls[rng.Intn(len(tpls))].ops(age + 1) {
				age++
				script = append(script,
					request{kind: kindOp, method: http.MethodPost, path: "/api/v1/ops", body: opsBody(op), tlLen: age, ops: []core.OpDTO{op}},
					request{kind: kindState, method: http.MethodGet, path: "/api/v1/state", tlLen: age})
			}
		}
		p.sessions = append(p.sessions, script)
	}
	p.batches, p.probeKeywords, p.probeName = filmBatches(res, seed)
	return p, nil
}

// filmBatches renders the paced writer's input: new films, each typed,
// labelled and starring three existing actors, batchFilms per batch.
func filmBatches(res *synth.Result, seed int64) ([]request, string, string) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	g := res.Graph
	actors := res.Manifest.Actors
	tag := letters(int(seed))
	var out []request
	var probeKW, probeName string
	film := 0
	for b := 0; b < writerBatches; b++ {
		var sb strings.Builder
		for f := 0; f < batchFilms; f++ {
			word := letters(film)
			film++
			local := "Reelfilm_" + tag + "_" + word
			iri := "<" + kg.ResourceIRI(local) + ">"
			name := "Reelfilm " + tag + " " + word
			fmt.Fprintf(&sb, "%s <%s> <http://pivote.dev/ontology/class/Film> .\n", iri, kg.IRIType)
			fmt.Fprintf(&sb, "%s <%s> %q .\n", iri, kg.IRILabel, name)
			for a := 0; a < 3; a++ {
				actor := g.Dict().Term(actors[rng.Intn(len(actors))]).Value
				fmt.Fprintf(&sb, "%s <http://pivote.dev/ontology/starring> <%s> .\n", iri, actor)
			}
			if probeName == "" {
				probeKW, probeName = strings.ToLower(name), name
			}
		}
		out = append(out, request{kind: kindIngest, method: http.MethodPost, path: "/api/v1/ingest", body: []byte(sb.String())})
	}
	return out, probeKW, probeName
}

// letters spells n in base 26 over a–z with a fixed "q" prefix, so every
// film gets a distinct alphabetic search token.
func letters(n int) string {
	if n < 0 {
		n = -n
	}
	b := []byte{}
	for {
		b = append([]byte{byte('a' + n%26)}, b...)
		n /= 26
		if n == 0 {
			break
		}
	}
	return "q" + string(b)
}
