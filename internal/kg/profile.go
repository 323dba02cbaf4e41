package kg

import (
	"fmt"
	"strings"

	"pivote/internal/rdf"
)

// Profile is the entity presentation area content (Fig. 3-d): everything
// PivotE shows when the user clicks an entity. The JSON form is the
// GET /api/v1/profile body.
type Profile struct {
	ID         rdf.TermID `json:"id"`
	IRI        string     `json:"iri"`
	Name       string     `json:"name"`
	Abstract   string     `json:"abstract,omitempty"`
	Types      []string   `json:"types"`
	Categories []string   `json:"categories"`
	Facts      []Fact     `json:"facts"`    // outgoing semantic relations, entity objects
	Literals   []Fact     `json:"literals"` // outgoing attributes (predicate → literal)
	InvertedIn []Fact     `json:"incoming"` // incoming semantic relations (subject → predicate)
}

// Fact is one displayed statement about the entity.
type Fact struct {
	Predicate string `json:"predicate"`
	Value     string `json:"value"`
}

// ProfileOf assembles the presentation-area content for e. maxFacts
// bounds each fact list (<=0 means unbounded).
func (g *Graph) ProfileOf(e rdf.TermID, maxFacts int) Profile {
	p := Profile{
		ID:       e,
		IRI:      g.Dict().Term(e).Value,
		Name:     g.Name(e),
		Abstract: g.Abstract(e),
	}
	for _, t := range g.TypesOf(e) {
		p.Types = append(p.Types, g.Name(t))
	}
	for _, c := range g.CategoriesOf(e) {
		p.Categories = append(p.Categories, g.Name(c))
	}
	capped := func(facts []Fact) []Fact {
		if maxFacts > 0 && len(facts) > maxFacts {
			return facts[:maxFacts]
		}
		return facts
	}
	for _, edge := range g.store.Out(e) {
		if g.voc.IsMeta(edge.P) {
			continue
		}
		t := g.Dict().Term(edge.Node)
		f := Fact{Predicate: g.Dict().Term(edge.P).LocalName()}
		if t.IsLiteral() {
			f.Value = t.Value
			p.Literals = append(p.Literals, f)
		} else {
			f.Value = g.Name(edge.Node)
			p.Facts = append(p.Facts, f)
		}
	}
	for _, edge := range g.store.In(e) {
		if g.voc.IsMeta(edge.P) {
			continue
		}
		p.InvertedIn = append(p.InvertedIn, Fact{
			Predicate: g.Dict().Term(edge.P).LocalName(),
			Value:     g.Name(edge.Node),
		})
	}
	p.Facts = capped(p.Facts)
	p.Literals = capped(p.Literals)
	p.InvertedIn = capped(p.InvertedIn)
	return p
}

// Render prints the profile as the text block shown in the presentation
// area.
func (p Profile) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  <%s>\n", p.Name, p.IRI)
	if p.Abstract != "" {
		fmt.Fprintf(&b, "  %s\n", p.Abstract)
	}
	if len(p.Types) > 0 {
		fmt.Fprintf(&b, "  types: %s\n", strings.Join(p.Types, ", "))
	}
	if len(p.Categories) > 0 {
		fmt.Fprintf(&b, "  categories: %s\n", strings.Join(p.Categories, ", "))
	}
	for _, f := range p.Literals {
		fmt.Fprintf(&b, "  %s: %s\n", f.Predicate, f.Value)
	}
	for _, f := range p.Facts {
		fmt.Fprintf(&b, "  %s → %s\n", f.Predicate, f.Value)
	}
	for _, f := range p.InvertedIn {
		fmt.Fprintf(&b, "  %s ← %s\n", f.Predicate, f.Value)
	}
	return b.String()
}
