package core

import (
	"strings"

	"pivote/internal/kg"
	"pivote/internal/rdf"
	"pivote/internal/semfeat"
)

// OpKind names one of the eight operations of PivotE's interaction
// model. The values double as the wire encoding and match the session
// package's action names, so an op log and a timeline speak the same
// vocabulary.
type OpKind string

const (
	OpKindSubmit        OpKind = "submit"
	OpKindAddSeed       OpKind = "add-entity"
	OpKindRemoveSeed    OpKind = "remove-entity"
	OpKindAddFeature    OpKind = "add-feature"
	OpKindRemoveFeature OpKind = "remove-feature"
	OpKindLookup        OpKind = "lookup"
	OpKindPivot         OpKind = "pivot"
	OpKindRevisit       OpKind = "revisit"
)

// Op is one serializable operation of the protocol — the closed sum type
// behind Engine.Apply. Exactly the fields of its kind are meaningful:
// Keywords for submit, Entity for the entity ops, Feature for the
// feature ops, Step for revisit. Construct ops with the OpXxx helpers.
type Op struct {
	Kind     OpKind
	Keywords string          // OpKindSubmit
	Entity   rdf.TermID      // OpKindAddSeed, OpKindRemoveSeed, OpKindLookup, OpKindPivot
	Feature  semfeat.Feature // OpKindAddFeature, OpKindRemoveFeature
	Step     int             // OpKindRevisit
}

// OpSubmit starts a new keyword query (Fig. 3-a).
func OpSubmit(keywords string) Op { return Op{Kind: OpKindSubmit, Keywords: keywords} }

// OpAddSeed adds an example entity to the query (investigation).
func OpAddSeed(e rdf.TermID) Op { return Op{Kind: OpKindAddSeed, Entity: e} }

// OpRemoveSeed removes an example entity.
func OpRemoveSeed(e rdf.TermID) Op { return Op{Kind: OpKindRemoveSeed, Entity: e} }

// OpAddFeature pins a semantic-feature condition.
func OpAddFeature(f semfeat.Feature) Op { return Op{Kind: OpKindAddFeature, Feature: f} }

// OpRemoveFeature unpins a condition.
func OpRemoveFeature(f semfeat.Feature) Op { return Op{Kind: OpKindRemoveFeature, Feature: f} }

// OpLookup records a profile view (Fig. 3-d); the query is unchanged.
func OpLookup(e rdf.TermID) Op { return Op{Kind: OpKindLookup, Entity: e} }

// OpPivot switches the search domain through an entity (§3.2).
func OpPivot(e rdf.TermID) Op { return Op{Kind: OpKindPivot, Entity: e} }

// OpRevisit restores a historical query from the timeline (1-based).
func OpRevisit(step int) Op { return Op{Kind: OpKindRevisit, Step: step} }

// Fields selects which areas of the interface ApplyFields/EvaluateCtx assemble.
// The heat map is by far the most expensive area, so callers that only
// need the x-axis ask for FieldEntities and skip its construction
// entirely (the HTTP server maps ?include= onto this).
type Fields uint8

const (
	// FieldEntities is the recommendation area (c): the x-axis.
	FieldEntities Fields = 1 << iota
	// FieldFeatures is the semantic-feature area (e): the y-axis.
	FieldFeatures
	// FieldHeatmap is the explanation area (f).
	FieldHeatmap
	// FieldTimeline is the query history (g).
	FieldTimeline

	// FieldNone assembles only the query description — the cheapest
	// acknowledgement of an applied op.
	FieldNone Fields = 0
	// FieldsAll assembles the full interface state.
	FieldsAll = FieldEntities | FieldFeatures | FieldHeatmap | FieldTimeline
)

var fieldNames = []struct {
	name string
	bit  Fields
}{
	{"entities", FieldEntities},
	{"features", FieldFeatures},
	{"heatmap", FieldHeatmap},
	{"timeline", FieldTimeline},
}

// ParseFields parses a comma-separated field selection
// ("entities,features,heatmap,timeline"). The empty string selects
// everything; an unknown name is a KindInvalid error.
func ParseFields(s string) (Fields, error) {
	if strings.TrimSpace(s) == "" {
		return FieldsAll, nil
	}
	var out Fields
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		found := false
		for _, fn := range fieldNames {
			if fn.name == tok {
				out |= fn.bit
				found = true
				break
			}
		}
		if !found {
			return 0, Errf(KindInvalid, "unknown field %q (valid: entities, features, heatmap, timeline)", tok)
		}
	}
	return out, nil
}

// String renders the selection in ParseFields form.
func (f Fields) String() string {
	var parts []string
	for _, fn := range fieldNames {
		if f&fn.bit != 0 {
			parts = append(parts, fn.name)
		}
	}
	return strings.Join(parts, ",")
}

// OpDTO is the wire form of an Op: symbolic references (entity IRIs or
// names, anchor:predicate feature labels) so an op log survives process
// restarts and graph rebuilds, which term IDs do not. It is both the
// /api/v1 request format and the session-file format.
type OpDTO struct {
	Op       string `json:"op"`
	Keywords string `json:"keywords,omitempty"`
	Entity   string `json:"entity,omitempty"`
	EntityID uint32 `json:"entityId,omitempty"`
	Feature  string `json:"feature,omitempty"`
	Step     int    `json:"step,omitempty"`
}

// EncodeOp converts an op to its wire form against the graph. Entities
// are stored as full IRIs.
func EncodeOp(g *kg.Graph, op Op) OpDTO {
	d := OpDTO{Op: string(op.Kind)}
	switch op.Kind {
	case OpKindSubmit:
		d.Keywords = op.Keywords
	case OpKindAddSeed, OpKindRemoveSeed, OpKindLookup, OpKindPivot:
		d.Entity = g.Dict().Term(op.Entity).Value
	case OpKindAddFeature, OpKindRemoveFeature:
		d.Feature = semfeat.Label(g, op.Feature)
	case OpKindRevisit:
		d.Step = op.Step
	}
	return d
}

// DecodeOp resolves a wire op against the graph, returning typed errors:
// KindNotFound for unknown entities, KindInvalid for malformed ops or
// unresolvable feature labels.
func DecodeOp(g *kg.Graph, d OpDTO) (Op, error) {
	switch kind := OpKind(d.Op); kind {
	case OpKindSubmit:
		return OpSubmit(d.Keywords), nil
	case OpKindAddSeed, OpKindRemoveSeed, OpKindLookup, OpKindPivot:
		id, err := decodeEntity(g, d)
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: kind, Entity: id}, nil
	case OpKindAddFeature, OpKindRemoveFeature:
		if d.Feature == "" {
			return Op{}, Errf(KindInvalid, "op %q needs a feature label", d.Op)
		}
		f, err := semfeat.Parse(g, d.Feature)
		if err != nil {
			return Op{}, &Error{Kind: KindInvalid, Msg: err.Error(), Err: err}
		}
		return Op{Kind: kind, Feature: f}, nil
	case OpKindRevisit:
		return OpRevisit(d.Step), nil
	default:
		return Op{}, Errf(KindInvalid, "unknown op kind %q", d.Op)
	}
}

func decodeEntity(g *kg.Graph, d OpDTO) (rdf.TermID, error) {
	if d.EntityID != 0 {
		id := rdf.TermID(d.EntityID)
		if !g.IsEntity(id) {
			return rdf.NoTerm, Errf(KindNotFound, "id %d is not an entity", d.EntityID)
		}
		return id, nil
	}
	if d.Entity != "" {
		if id := g.EntityByName(d.Entity); id != rdf.NoTerm {
			return id, nil
		}
		return rdf.NoTerm, Errf(KindNotFound, "unknown entity %q", d.Entity)
	}
	return rdf.NoTerm, Errf(KindInvalid, "op %q needs an entity (name, IRI or id)", d.Op)
}
