package search

import (
	"context"
	"math"
	"sync"

	"pivote/internal/index"
	"pivote/internal/par"
	"pivote/internal/topk"
)

// The scatter scorer inverts the retrieval loop. The retained naive path
// (naive_test.go) is document-at-a-time: for every candidate document it
// probes TF(field, term, doc) — a binary search inside the posting run —
// once per (field, term), and materializes every scored hit before
// selecting the top k. The scatter path is term-at-a-time over the
// frozen index: each query term's posting runs (contiguous CSR slices)
// are scattered into dense per-document TF slots, then one pass over the
// candidate set folds the term into each document's score with the
// *same* per-field arithmetic, in the same order, as the naive inner
// loop — so scores are byte-identical, including the Dirichlet background
// mass that every candidate receives for in-vocabulary terms it does not
// contain. Candidates stream straight into the shared bounded top-k heap;
// no per-query hit list, no candidate map, no binary searches.
//
// All working state lives in a pooled scratch struct with epoch-stamped
// dense arrays (the same pattern as internal/expand's scorer): reusing it
// across queries costs zero allocations and zero clearing — a stale entry
// is detected by its stamp — and the pool makes concurrent SearchCtx
// calls on one shared Engine safe. Per-term constants live in the scratch
// too (foldArgs), so the fold over candidates is a plain method call on
// small queries and only materializes a closure when the candidate set is
// large enough to shard over the worker pool. Cancellation is checked at
// posting-block granularity during scatter and per shard during the
// folds; an abandoned pass leaves only stale epochs behind, which the
// next begin() invalidates wholesale.

// postingBlock is how many postings a scatter loop processes between
// context checks.
const postingBlock = 4096

// parGrain is the minimum candidate count before a fold pass fans out
// over the worker pool; below it the fork-join overhead dominates and
// the pass runs inline.
const parGrain = 2048

// foldArgs carries the per-query and per-term constants of the active
// fold so the parallel shards share one block of state instead of a
// fresh closure environment per term.
type foldArgs struct {
	w        [index.NumFields]float64 // normalized field weights
	dls      [index.NumFields][]int32 // dense per-field doc lengths
	avg      [index.NumFields]float64 // per-field average doc length
	cp       [index.NumFields]float64 // current term: p(t|C_f)
	mu       float64
	k1, b    float64
	idf      float64 // current term: BM25F idf
	cep, tep uint32  // candidate and current-term epochs
}

// scratch is the reusable dense working state of one query.
type scratch struct {
	epoch   uint32
	cstamp  []uint32  // cstamp[d] == cep ⇔ d is a candidate this query
	tstamp  []uint32  // tstamp[d] == tep ⇔ d's slots hold the current term
	mstamp  []uint32  // matched (MLM/LM-names) or eliminated (Boolean) mark
	slots   []int32   // per-term TF scatter slots, NumFields per document
	acc     []float64 // per-document accumulated score
	itot    []int32   // per-document integer tf total (Boolean)
	touched []int32   // candidate documents, first-touch order
	tids    []int32   // resolved dictionary IDs of the query terms
	fa      foldArgs
	heap    topk.Heap[Hit]
}

var scratchPool = sync.Pool{New: func() interface{} { return &scratch{} }}

// begin sizes the dense arrays for n documents and opens a fresh
// candidate epoch, guaranteeing headroom for one more epoch per query
// term. Returns the candidate epoch.
func (sc *scratch) begin(n, terms int) uint32 {
	if len(sc.cstamp) < n {
		sc.cstamp = make([]uint32, n)
		sc.tstamp = make([]uint32, n)
		sc.mstamp = make([]uint32, n)
		sc.slots = make([]int32, n*int(index.NumFields))
		sc.acc = make([]float64, n)
		sc.itot = make([]int32, n)
	}
	if sc.epoch > math.MaxUint32-uint32(terms)-2 {
		// Epoch space about to wrap: every stamp becomes ambiguous, so
		// clear them all and restart. Happens once per 4G queries.
		for i := range sc.cstamp {
			sc.cstamp[i] = 0
			sc.tstamp[i] = 0
			sc.mstamp[i] = 0
		}
		sc.epoch = 0
	}
	sc.epoch++
	sc.touched = sc.touched[:0]
	sc.tids = sc.tids[:0]
	sc.fa = foldArgs{}
	return sc.epoch
}

// nextTermEpoch opens the slot epoch for the next query term.
func (sc *scratch) nextTermEpoch() uint32 {
	sc.epoch++
	return sc.epoch
}

// searchScatter is the production retrieval path: term-at-a-time scatter
// scoring over the frozen index into pooled scratch, streaming into the
// bounded top-k heap.
func (e *Engine) searchScatter(ctx context.Context, terms []string, k int, model Model) ([]Hit, error) {
	// Validate params before touching any state, so errors are cheap.
	var w [index.NumFields]float64
	if model == ModelMLM || model == ModelBM25F {
		var err error
		if w, err = e.normWeights(); err != nil {
			return nil, err
		}
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	cep := sc.begin(e.idx.DocCount(), len(terms))
	for _, t := range terms {
		sc.tids = append(sc.tids, e.idx.LookupTerm(t))
	}
	if err := e.collectCandidates(ctx, sc, cep); err != nil {
		return nil, err
	}
	if len(sc.touched) == 0 {
		return nil, ctx.Err()
	}
	sc.fa.w = w
	sc.fa.cep = cep
	sc.fa.mu = e.params.Mu
	sc.fa.k1, sc.fa.b = e.params.K1, e.params.B
	for f := index.Field(0); f < index.NumFields; f++ {
		sc.fa.dls[f] = e.idx.DocLens(f)
		sc.fa.avg[f] = e.idx.AvgDocLen(f)
	}
	var err error
	switch model {
	case ModelMLM:
		err = e.scatterMLM(ctx, sc)
	case ModelBM25F:
		err = e.scatterBM25F(ctx, sc)
	case ModelLMNames:
		err = e.scatterLMNames(ctx, sc)
	case ModelBoolean:
		err = e.scatterBoolean(ctx, sc)
	}
	if err != nil {
		return nil, err
	}
	return e.selectHits(sc, cep, k, model), nil
}

// collectCandidates stamps the union of the query terms' posting runs
// across all fields — the same candidate pool CandidateDocs computes,
// without the merge — and resets each candidate's accumulators once.
func (e *Engine) collectCandidates(ctx context.Context, sc *scratch, cep uint32) error {
	for ti, tid := range sc.tids {
		if tid < 0 || seenBefore(sc.tids, ti) {
			continue
		}
		for f := index.Field(0); f < index.NumFields; f++ {
			run := e.idx.PostingsByID(f, tid)
			for i := range run {
				if i%postingBlock == 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
				d := int32(run[i].Doc)
				if sc.cstamp[d] != cep {
					sc.cstamp[d] = cep
					sc.acc[d] = 0
					sc.itot[d] = 0
					sc.touched = append(sc.touched, d)
				}
			}
		}
	}
	return nil
}

// seenBefore reports whether tids[i] already occurred at an earlier
// position — duplicate query terms scatter once per occurrence for
// scoring but need only one candidate-collection walk.
func seenBefore(tids []int32, i int) bool {
	for _, prev := range tids[:i] {
		if prev == tids[i] {
			return true
		}
	}
	return false
}

// scatterTF spreads one term's per-field frequencies into the dense
// slots under a fresh term epoch (recorded in fa.tep). Fields with no
// postings cost nothing.
func (e *Engine) scatterTF(ctx context.Context, sc *scratch, tid int32) error {
	sc.fa.tep = sc.nextTermEpoch()
	if tid < 0 {
		return nil
	}
	tep := sc.fa.tep
	for f := index.Field(0); f < index.NumFields; f++ {
		run := e.idx.PostingsByID(f, tid)
		for i := range run {
			if i%postingBlock == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			d := run[i].Doc
			base := d * int(index.NumFields)
			if sc.tstamp[d] != tep {
				sc.tstamp[d] = tep
				for j := 0; j < int(index.NumFields); j++ {
					sc.slots[base+j] = 0
				}
			}
			sc.slots[base+int(f)] = run[i].TF
		}
	}
	return nil
}

// runFold executes fold over [0, len(touched)): inline below parGrain,
// sharded over the worker pool above it. Shards own disjoint documents,
// so folds write acc/mstamp/itot without synchronization and the result
// is deterministic regardless of scheduling.
func (e *Engine) runFold(ctx context.Context, sc *scratch, fold func(sc *scratch, lo, hi int)) error {
	if n := len(sc.touched); n < parGrain {
		fold(sc, 0, n)
	} else {
		par.For(n, parGrain, func(lo, hi int) {
			if ctx.Err() != nil {
				return // canceled: skip the shard, caller reports the error
			}
			fold(sc, lo, hi)
		})
	}
	return ctx.Err()
}

// scatterMLM folds each query term into every candidate's score:
// acc[d] += log Σ_f w_f·(tf + μ·p(t|C_f))/(len_f + μ), replicating the
// naive inner loop's arithmetic (and skip rule) field by field so the
// result is bit-equal.
func (e *Engine) scatterMLM(ctx context.Context, sc *scratch) error {
	for _, tid := range sc.tids {
		inVocab := false
		for f := index.Field(0); f < index.NumFields; f++ {
			sc.fa.cp[f] = e.idx.CollProbByID(f, tid)
			if sc.fa.cp[f] != 0 {
				inVocab = true
			}
		}
		if !inVocab {
			continue // OOV everywhere: the naive mix is 0 for every doc
		}
		if err := e.scatterTF(ctx, sc, tid); err != nil {
			return err
		}
		if err := e.runFold(ctx, sc, foldMLM); err != nil {
			return err
		}
	}
	return nil
}

func foldMLM(sc *scratch, lo, hi int) {
	fa := &sc.fa
	for _, d := range sc.touched[lo:hi] {
		hasTF := sc.tstamp[d] == fa.tep
		base := int(d) * int(index.NumFields)
		mix := 0.0
		for f := 0; f < int(index.NumFields); f++ {
			var tf int32
			if hasTF {
				tf = sc.slots[base+f]
			}
			if fa.cp[f] == 0 && tf == 0 {
				continue
			}
			dl := float64(fa.dls[f][d])
			p := (float64(tf) + fa.mu*fa.cp[f]) / (dl + fa.mu)
			mix += fa.w[f] * p
		}
		if mix > 0 {
			sc.acc[d] += math.Log(mix)
			sc.mstamp[d] = fa.cep
		}
	}
}

// scatterBM25F folds each term's saturated pseudo-frequency into the
// candidates' scores, with document frequency read from the build-time
// any-field table instead of a per-query map.
func (e *Engine) scatterBM25F(ctx context.Context, sc *scratch) error {
	n := float64(e.idx.DocCount())
	for _, tid := range sc.tids {
		df := float64(e.idx.AnyFieldDocFreq(tid))
		if df == 0 {
			continue
		}
		sc.fa.idf = math.Log((n-df+0.5)/(df+0.5) + 1)
		if err := e.scatterTF(ctx, sc, tid); err != nil {
			return err
		}
		if err := e.runFold(ctx, sc, foldBM25F); err != nil {
			return err
		}
	}
	return nil
}

func foldBM25F(sc *scratch, lo, hi int) {
	fa := &sc.fa
	for _, d := range sc.touched[lo:hi] {
		if sc.tstamp[d] != fa.tep {
			continue // no occurrence in any field: pseudoTF is 0
		}
		base := int(d) * int(index.NumFields)
		pseudoTF := 0.0
		for f := 0; f < int(index.NumFields); f++ {
			tf := float64(sc.slots[base+f])
			if tf == 0 {
				continue
			}
			norm := 1.0
			if fa.avg[f] > 0 {
				norm = 1 - fa.b + fa.b*float64(fa.dls[f][d])/fa.avg[f]
			}
			pseudoTF += fa.w[f] * tf / norm
		}
		if pseudoTF == 0 {
			continue
		}
		sc.acc[d] += fa.idf * pseudoTF / (fa.k1 + pseudoTF)
	}
}

// scatterLMNames folds each term's names-field likelihood into the
// candidates' scores. The candidate pool is still the all-field union —
// a document matched only through, say, the related field is scored
// entirely on background mass, exactly as the naive baseline does.
func (e *Engine) scatterLMNames(ctx context.Context, sc *scratch) error {
	for _, tid := range sc.tids {
		cp := e.idx.CollProbByID(index.FieldNames, tid)
		if cp == 0 && len(e.idx.PostingsByID(index.FieldNames, tid)) == 0 {
			continue // naive skips (cp==0 && tf==0) for every doc
		}
		sc.fa.cp[index.FieldNames] = cp
		if err := e.scatterTF(ctx, sc, tid); err != nil {
			return err
		}
		if err := e.runFold(ctx, sc, foldLMNames); err != nil {
			return err
		}
	}
	return nil
}

func foldLMNames(sc *scratch, lo, hi int) {
	fa := &sc.fa
	cp := fa.cp[index.FieldNames]
	dl := fa.dls[index.FieldNames]
	for _, d := range sc.touched[lo:hi] {
		var tf int32
		if sc.tstamp[d] == fa.tep {
			tf = sc.slots[int(d)*int(index.NumFields)+int(index.FieldNames)]
		}
		if cp == 0 && tf == 0 {
			continue
		}
		sc.acc[d] += math.Log((float64(tf) + fa.mu*cp) / (float64(dl[d]) + fa.mu))
		sc.mstamp[d] = fa.cep
	}
}

// scatterBoolean eliminates candidates missing any term and totals the
// raw term frequencies of the survivors. mstamp marks *eliminated*
// documents here — conjunction is a kill-switch, not a match mark.
func (e *Engine) scatterBoolean(ctx context.Context, sc *scratch) error {
	for _, tid := range sc.tids {
		if err := e.scatterTF(ctx, sc, tid); err != nil {
			return err
		}
		if err := e.runFold(ctx, sc, foldBoolean); err != nil {
			return err
		}
	}
	return nil
}

func foldBoolean(sc *scratch, lo, hi int) {
	fa := &sc.fa
	for _, d := range sc.touched[lo:hi] {
		if sc.mstamp[d] == fa.cep {
			continue // already eliminated by an earlier term
		}
		total := int32(0)
		if sc.tstamp[d] == fa.tep {
			base := int(d) * int(index.NumFields)
			for f := 0; f < int(index.NumFields); f++ {
				total += sc.slots[base+f]
			}
		}
		if total == 0 {
			sc.mstamp[d] = fa.cep
			continue
		}
		sc.itot[d] += total
	}
}

// selectHits streams the surviving candidates into the bounded top-k
// heap and resolves display names only for the winners.
func (e *Engine) selectHits(sc *scratch, cep uint32, k int, model Model) []Hit {
	sc.heap.Reset(k, lessHit)
	for _, d := range sc.touched {
		var score float64
		switch model {
		case ModelMLM:
			if sc.mstamp[d] != cep {
				continue
			}
			score = sc.acc[d]
		case ModelBM25F:
			if sc.acc[d] <= 0 {
				continue
			}
			score = sc.acc[d]
		case ModelLMNames:
			if sc.mstamp[d] != cep || sc.acc[d] == 0 {
				continue
			}
			score = sc.acc[d]
		case ModelBoolean:
			if sc.mstamp[d] == cep {
				continue
			}
			score = float64(sc.itot[d])
		}
		ent := e.idx.Entity(int(d))
		if e.own != nil && !e.own(ent) {
			continue
		}
		sc.heap.Push(Hit{Entity: ent, Score: score})
	}
	if sc.heap.Len() == 0 {
		return nil
	}
	// The heap's buffer is scratch: copy the page out and only now touch
	// the name table, once per surviving hit.
	sorted := sc.heap.Sorted()
	out := make([]Hit, len(sorted))
	copy(out, sorted)
	for i := range out {
		out[i].Name = e.g.Name(out[i].Entity)
	}
	return out
}
