package search

import (
	"context"
	"fmt"
	"math"

	"pivote/internal/index"
	"pivote/internal/topk"
)

// This file keeps the document-at-a-time scorers that predate the
// term-at-a-time scatter path (scatter.go) as an executable spec: per
// candidate document they probe TF(field, term, doc) with a binary
// search inside the term's posting run. The equivalence suite pins the
// scatter scorers to these byte for byte — same hits, same score bits,
// same order. They live in a test file: no production entry point
// reaches them.

// checkEvery is how many candidate documents the naive scoring loops
// process between context checks.
const checkEvery = 1024

// searchNaive runs the pre-scatter pipeline: materialize and score every
// candidate document, then select top-k.
func (e *Engine) searchNaive(ctx context.Context, terms []string, k int, model Model) ([]Hit, error) {
	var scored []Hit
	var err error
	switch model {
	case ModelMLM:
		scored, err = e.naiveMLM(ctx, terms)
	case ModelBM25F:
		scored, err = e.naiveBM25F(ctx, terms)
	case ModelLMNames:
		scored, err = e.naiveLMNames(ctx, terms)
	case ModelBoolean:
		scored, err = e.naiveBoolean(ctx, terms)
	default:
		panic(fmt.Sprintf("search: unknown model %d", int(model)))
	}
	if err != nil {
		return nil, err
	}
	if e.own != nil {
		// Same contract as the scatter path: score globally, emit only the
		// owned partition.
		kept := scored[:0]
		for _, h := range scored {
			if e.own(h.Entity) {
				kept = append(kept, h)
			}
		}
		scored = kept
	}
	return topK(scored, k), nil
}

// naiveMLM implements the paper's mixture of language models: the score
// of a document is Σ_t log Σ_f w_f · p(t|θ_{d,f}) with per-field
// Dirichlet-smoothed document models. Terms that are out of vocabulary in
// every field contribute nothing (instead of -∞), which keeps multi-term
// queries robust — the "error-tolerant" behaviour keyword search needs.
func (e *Engine) naiveMLM(ctx context.Context, terms []string) ([]Hit, error) {
	w, err := e.normWeights()
	if err != nil {
		return nil, err
	}
	mu := e.params.Mu
	var collProb [index.NumFields]map[string]float64
	for f := index.Field(0); f < index.NumFields; f++ {
		collProb[f] = map[string]float64{}
		for _, t := range terms {
			collProb[f][t] = e.idx.CollectionProb(f, t)
		}
	}
	docs := e.idx.CandidateDocs(terms)
	hits := make([]Hit, 0, len(docs))
	for i, d := range docs {
		if i%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		score := 0.0
		matched := false
		for _, t := range terms {
			mix := 0.0
			for f := index.Field(0); f < index.NumFields; f++ {
				cp := collProb[f][t]
				if cp == 0 && e.idx.TF(f, t, d) == 0 {
					continue
				}
				dl := float64(e.idx.DocLen(f, d))
				p := (float64(e.idx.TF(f, t, d)) + mu*cp) / (dl + mu)
				mix += w[f] * p
			}
			if mix > 0 {
				score += math.Log(mix)
				matched = true
			}
		}
		if matched {
			hits = append(hits, e.hit(d, score))
		}
	}
	return hits, nil
}

// naiveBM25F implements the weighted-field BM25 variant: per-field term
// frequencies are length-normalized, weighted and summed into a pseudo
// frequency that feeds the usual BM25 saturation, with document frequency
// computed over any-field occurrence (per query, via a map — the frozen
// index precomputes the same quantity).
func (e *Engine) naiveBM25F(ctx context.Context, terms []string) ([]Hit, error) {
	w, err := e.normWeights()
	if err != nil {
		return nil, err
	}
	k1, b := e.params.K1, e.params.B
	n := float64(e.idx.DocCount())
	df := map[string]float64{}
	for _, t := range terms {
		seen := map[int]bool{}
		for f := index.Field(0); f < index.NumFields; f++ {
			for _, p := range e.idx.Postings(f, t) {
				seen[p.Doc] = true
			}
		}
		df[t] = float64(len(seen))
	}
	docs := e.idx.CandidateDocs(terms)
	hits := make([]Hit, 0, len(docs))
	for i, d := range docs {
		if i%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		score := 0.0
		for _, t := range terms {
			if df[t] == 0 {
				continue
			}
			pseudoTF := 0.0
			for f := index.Field(0); f < index.NumFields; f++ {
				tf := float64(e.idx.TF(f, t, d))
				if tf == 0 {
					continue
				}
				avg := e.idx.AvgDocLen(f)
				norm := 1.0
				if avg > 0 {
					norm = 1 - b + b*float64(e.idx.DocLen(f, d))/avg
				}
				pseudoTF += w[f] * tf / norm
			}
			if pseudoTF == 0 {
				continue
			}
			idf := math.Log((n-df[t]+0.5)/(df[t]+0.5) + 1)
			score += idf * pseudoTF / (k1 + pseudoTF)
		}
		if score > 0 {
			hits = append(hits, e.hit(d, score))
		}
	}
	return hits, nil
}

// naiveLMNames is the single-field query-likelihood baseline over names.
func (e *Engine) naiveLMNames(ctx context.Context, terms []string) ([]Hit, error) {
	mu := e.params.Mu
	docs := e.idx.CandidateDocs(terms)
	hits := make([]Hit, 0, len(docs))
	for i, d := range docs {
		if i%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		score := 0.0
		matched := false
		for _, t := range terms {
			cp := e.idx.CollectionProb(index.FieldNames, t)
			tf := float64(e.idx.TF(index.FieldNames, t, d))
			if cp == 0 && tf == 0 {
				continue
			}
			dl := float64(e.idx.DocLen(index.FieldNames, d))
			score += math.Log((tf + mu*cp) / (dl + mu))
			matched = true
		}
		if matched && score != 0 {
			hits = append(hits, e.hit(d, score))
		}
	}
	return hits, nil
}

// naiveBoolean keeps documents containing every term (in any field) and
// ranks them by summed term frequency.
func (e *Engine) naiveBoolean(ctx context.Context, terms []string) ([]Hit, error) {
	docs := e.idx.CandidateDocs(terms)
	hits := make([]Hit, 0, len(docs))
	for i, d := range docs {
		if i%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		total := int32(0)
		all := true
		for _, t := range terms {
			tf := int32(0)
			for f := index.Field(0); f < index.NumFields; f++ {
				tf += e.idx.TF(f, t, d)
			}
			if tf == 0 {
				all = false
				break
			}
			total += tf
		}
		if all {
			hits = append(hits, e.hit(d, float64(total)))
		}
	}
	return hits, nil
}

func (e *Engine) hit(doc int, score float64) Hit {
	ent := e.idx.Entity(doc)
	return Hit{Entity: ent, Name: e.g.Name(ent), Score: score}
}

// topK selects the k best hits via the shared bounded-heap helper.
func topK(hits []Hit, k int) []Hit {
	return topk.Select(hits, k, lessHit)
}
