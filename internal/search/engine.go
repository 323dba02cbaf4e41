package search

import (
	"context"
	"fmt"

	"pivote/internal/errs"
	"pivote/internal/index"
	"pivote/internal/kg"
	"pivote/internal/rdf"
	"pivote/internal/text"
)

// Model selects the retrieval model.
type Model int

const (
	// ModelMLM is the paper's mixture of per-field language models.
	ModelMLM Model = iota
	// ModelBM25F is the fielded BM25 baseline.
	ModelBM25F
	// ModelLMNames is a single-field (names-only) language model.
	ModelLMNames
	// ModelBoolean is conjunctive boolean retrieval ranked by raw tf.
	ModelBoolean
)

func (m Model) String() string {
	switch m {
	case ModelMLM:
		return "MLM"
	case ModelBM25F:
		return "BM25F"
	case ModelLMNames:
		return "LM-names"
	case ModelBoolean:
		return "BooleanAND"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// Params are the retrieval hyperparameters.
type Params struct {
	// FieldWeights mixes the per-field language models (MLM) or scales
	// per-field term frequencies (BM25F). They are normalized to sum to 1
	// at query time; all-zero weights are invalid.
	FieldWeights [index.NumFields]float64
	// Mu is the Dirichlet smoothing mass for the language models.
	Mu float64
	// K1 and B are the BM25F saturation and length-normalization knobs.
	K1, B float64
}

// DefaultParams mirror the common DBpedia-entity-search settings: names
// weighted highest, attributes and categories next, the two
// neighbour-name fields lower; μ=100 suits short KG fields.
func DefaultParams() Params {
	return Params{
		FieldWeights: [index.NumFields]float64{
			index.FieldNames:      0.40,
			index.FieldAttributes: 0.15,
			index.FieldCategories: 0.20,
			index.FieldSimilar:    0.10,
			index.FieldRelated:    0.15,
		},
		Mu: 100,
		K1: 1.2,
		B:  0.75,
	}
}

// Hit is one search result.
type Hit struct {
	Entity rdf.TermID
	Name   string
	Score  float64
}

// Engine retrieves entities for keyword queries.
type Engine struct {
	g      *kg.Graph
	idx    *index.Index
	params Params
	// own restricts emission to a shard's partition: when non-nil, hits
	// whose entity it rejects never enter the top-k heap. Scoring itself
	// is untouched — every document is still scored against the global
	// collection statistics, so the scores of owned hits are bit-identical
	// to an unpartitioned engine's.
	own func(rdf.TermID) bool
}

// NewEngine builds the five-field index over the graph's entity universe.
func NewEngine(g *kg.Graph) *Engine {
	return &Engine{g: g, idx: BuildIndex(g), params: DefaultParams()}
}

// NewEngineWithParams is NewEngine with explicit hyperparameters.
func NewEngineWithParams(g *kg.Graph, p Params) *Engine {
	e := NewEngine(g)
	e.params = p
	return e
}

// NewEngineFromIndex wraps an already-built index — the generation
// snapshot open path, where the index comes off the mapping instead of
// a fresh BuildIndex pass.
func NewEngineFromIndex(g *kg.Graph, idx *index.Index, p Params) *Engine {
	return &Engine{g: g, idx: idx, params: p}
}

// WithParams returns an engine sharing this engine's frozen index with
// different hyperparameters — parameter sweeps reuse one index build.
func (e *Engine) WithParams(p Params) *Engine {
	return &Engine{g: e.g, idx: e.idx, params: p, own: e.own}
}

// WithOwner returns an engine sharing this engine's frozen index that
// emits only hits own accepts (nil lifts the restriction). Shard nodes
// serve through an owned engine; the router merges the per-shard pages.
func (e *Engine) WithOwner(own func(rdf.TermID) bool) *Engine {
	return &Engine{g: e.g, idx: e.idx, params: e.params, own: own}
}

// Owner reports the emission restriction, nil when unpartitioned.
func (e *Engine) Owner() func(rdf.TermID) bool { return e.own }

// Index exposes the underlying index (read-only) for diagnostics.
func (e *Engine) Index() *index.Index { return e.idx }

// Params returns the engine's current hyperparameters.
func (e *Engine) Params() Params { return e.params }

// SetParams replaces the hyperparameters (used by the ablation benches).
func (e *Engine) SetParams(p Params) { e.params = p }

// Search runs the query under the given model and returns the top-k hits
// in descending score order (ties broken by entity ID for determinism).
// k <= 0 returns all matching entities. Errors (invalid params, unknown
// model) yield no hits.
func (e *Engine) Search(query string, k int, model Model) []Hit {
	hits, _ := e.SearchCtx(context.Background(), query, k, model)
	return hits
}

// SearchCtx is Search with cancellation: the scoring loops check the
// context at posting-block granularity and return its error instead of
// partial hits when it fires. Invalid parameters and unknown models
// return a typed error of kind "invalid" — a bad Params can never take
// down the server.
func (e *Engine) SearchCtx(ctx context.Context, query string, k int, model Model) ([]Hit, error) {
	terms := text.Analyze(query)
	if len(terms) == 0 {
		return nil, ctx.Err()
	}
	switch model {
	case ModelMLM, ModelBM25F, ModelLMNames, ModelBoolean:
	default:
		return nil, errs.Errf(errs.KindInvalid, "search: unknown model %d", int(model))
	}
	return e.searchScatter(ctx, terms, k, model)
}

// normWeights returns the field weights normalized to sum to 1, or a
// typed "invalid" error when they are all zero (or sum non-positive).
func (e *Engine) normWeights() ([index.NumFields]float64, error) {
	var w [index.NumFields]float64
	sum := 0.0
	for _, v := range e.params.FieldWeights {
		sum += v
	}
	if sum <= 0 {
		return w, errs.Errf(errs.KindInvalid, "search: all-zero field weights")
	}
	for f, v := range e.params.FieldWeights {
		w[f] = v / sum
	}
	return w, nil
}

// lessHit orders hits descending by score, ties by entity ID.
func lessHit(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Entity < b.Entity
}
