package core_test

import (
	"context"
	"sync"
	"testing"

	"pivote/internal/core"
	"pivote/internal/kg"
	"pivote/internal/obs"
	"pivote/internal/synth"
)

var (
	submitOnce  sync.Once
	submitGraph *kg.Graph
)

func submitSetup() *kg.Graph {
	submitOnce.Do(func() {
		submitGraph = synth.Generate(synth.Scaled(300)).Graph
	})
	return submitGraph
}

// applyEach applies op b.N times on a warm engine, each time a full
// evaluation of every interface area.
func applyEach(b *testing.B, eng *core.Engine, op core.Op) {
	ctx := context.Background()
	if _, err := eng.Apply(ctx, op); err != nil { // warm caches
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Apply(ctx, op)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Entities) == 0 {
			b.Fatal("no entities")
		}
	}
}

// BenchmarkSubmit measures one full interactive turn: keyword retrieval,
// pseudo-seed feature ranking and the heat map, i.e. what one submit op
// on POST /api/v1/ops costs once the engine is warm.
func BenchmarkSubmit(b *testing.B) {
	applyEach(b, core.New(submitSetup(), core.Options{}), core.OpSubmit("forrest gump"))
}

// BenchmarkPivot measures the pivot operation (switch domain, re-expand)
// on a warm engine.
func BenchmarkPivot(b *testing.B) {
	g := submitSetup()
	applyEach(b, core.New(g, core.Options{}), core.OpPivot(g.EntityByName("Forrest_Gump")))
}

// BenchmarkSubmitUninstrumented is BenchmarkSubmit with the obs layer
// switched off: the delta between the two is the true cost of stage
// timing + op metrics on the hot path, gated at ≤1.10× in
// benchgates.json via BENCH_obs.json.
func BenchmarkSubmitUninstrumented(b *testing.B) {
	prev := obs.SetEnabled(false)
	defer obs.SetEnabled(prev)
	applyEach(b, core.New(submitSetup(), core.Options{}), core.OpSubmit("forrest gump"))
}
