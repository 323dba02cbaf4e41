package core

import (
	"fmt"
	"strings"

	"pivote/internal/viz"
)

// RenderASCII assembles the whole workspace of Fig. 3 as text: the query
// area (a/b), the entity recommendation area (c), the semantic-feature
// recommendation area (e), the explanation heat map (f) and the timeline
// (g). The entity presentation area (d) is produced by Engine.LookupCtx.
func (r *Result) RenderASCII() string {
	var b strings.Builder
	b.WriteString("┌─ query (a,b) ─────────────────────────────────────\n")
	fmt.Fprintf(&b, "│ %s\n", r.Description)
	b.WriteString("├─ entities (c) ────────────────────────────────────\n")
	if len(r.Entities) == 0 {
		b.WriteString("│ (none)\n")
	}
	for i, e := range r.Entities {
		fmt.Fprintf(&b, "│ %2d. %-36s %10.6f\n", i+1, viz.Truncate(e.Name, 36), e.Score)
	}
	b.WriteString("├─ semantic features (e) ───────────────────────────\n")
	if len(r.Features) == 0 {
		b.WriteString("│ (none)\n")
	}
	for i, f := range r.Features {
		fmt.Fprintf(&b, "│ %2d. %-36s r=%.6f |E|=%d\n", i+1, viz.Truncate(f.Label, 36), f.R, f.ExtentSize)
	}
	b.WriteString("├─ explanation heat map (f) ────────────────────────\n")
	if r.Heat != nil && len(r.Heat.Features) > 0 && len(r.Heat.Entities) > 0 {
		for _, line := range strings.Split(strings.TrimRight(r.Heat.ASCII(), "\n"), "\n") {
			fmt.Fprintf(&b, "│ %s\n", line)
		}
	} else {
		b.WriteString("│ (empty)\n")
	}
	b.WriteString("├─ timeline (g) ────────────────────────────────────\n")
	for _, a := range r.Timeline {
		fmt.Fprintf(&b, "│ [%d] %s\n", a.Step, a.Label)
	}
	b.WriteString("└───────────────────────────────────────────────────\n")
	return b.String()
}

// ArchitectureDOT emits the component diagram of Fig. 2: the user
// interface talking to the search and recommendation engines over the
// knowledge graph store.
func ArchitectureDOT() string {
	return `digraph pivote_architecture {
  rankdir=TB;
  node [shape=box, style=rounded];
  ui [label="User Interface\n(query area, entity/feature areas,\nheat map, timeline)"];
  search [label="Search Engine\n(five-field MLM retrieval)"];
  recommend [label="Recommendation Engine\n(SF ranking + entity set expansion)"];
  sessionstate [label="Session\n(query state, timeline,\nexploratory path)"];
  index [label="Fielded Inverted Index"];
  sf [label="Semantic Feature Engine\n(extents, p(pi|e), r(pi,Q))"];
  kgstore [label="Knowledge Graph Store\n(dictionary-encoded triples,\nSPO/POS adjacency)"];
  ui -> search [label="keyword query"];
  ui -> recommend [label="seeds / features / pivot"];
  ui -> sessionstate [label="actions"];
  search -> index;
  recommend -> sf;
  index -> kgstore;
  sf -> kgstore;
}
`
}
