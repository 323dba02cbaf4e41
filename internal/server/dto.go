// Package server exposes a PivotE engine over HTTP: the versioned /api/v1
// operation protocol, which carries every interaction of the paper's
// interface as an op, its read-only renderings (profile, explanation,
// suggestions, heat map and path), and an embedded single-page web UI
// that drives exactly that surface. One Server wraps one engine (one
// user session); Multi fronts many sessions over one shared read core.
// Mutations of a session serialize behind its lock because the
// underlying session is stateful.
package server

import (
	"pivote/internal/apidto"
	"pivote/internal/core"
	"pivote/internal/kg"
	"pivote/internal/session"
)

// The v1 wire types live in internal/apidto (a leaf package shared with
// the inter-node binary codec in internal/wire) and are re-exported
// here under their historical names, so the server, the router and the
// codec all speak the exact same struct definitions.
type (
	EntityDTO   = apidto.EntityDTO
	FeatureDTO  = apidto.FeatureDTO
	TimelineDTO = apidto.TimelineDTO
)

// StateV1DTO is the /api/v1 state shape: unrequested areas are omitted
// entirely (the engine leaves them nil under field selection), so a
// ?include=entities response carries no feature, heat-map or timeline
// payload at all. Exported (with the rest of the v1 wire types) so the
// scatter-gather router can decode, merge and re-encode shard responses
// without drifting from the shapes the shard nodes serve.
type StateV1DTO = apidto.StateV1DTO

// ToStateV1DTO renders a result in the v1 wire shape against the graph
// it was evaluated on.
func ToStateV1DTO(g *kg.Graph, res *core.Result) StateV1DTO {
	dto := StateV1DTO{
		Description: res.Description,
		Heat:        res.Heat,
		Timeline:    toTimelineDTO(res.Timeline),
		Fallback:    res.Fallback,
	}
	for _, e := range res.Entities {
		typeName := ""
		if t := g.PrimaryType(e.Entity); t != 0 {
			typeName = g.Name(t)
		}
		dto.Entities = append(dto.Entities, EntityDTO{
			ID: uint32(e.Entity), Name: e.Name, Score: e.Score, Type: typeName,
		})
	}
	for _, f := range res.Features {
		dto.Features = append(dto.Features, FeatureDTO{
			Label:      f.Label,
			AnchorID:   uint32(f.Feature.Anchor),
			R:          f.R,
			ExtentSize: f.ExtentSize,
		})
	}
	return dto
}

func toTimelineDTO(actions []session.Action) []TimelineDTO {
	out := make([]TimelineDTO, 0, len(actions))
	for _, a := range actions {
		out = append(out, TimelineDTO{
			Step:         a.Step,
			Kind:         a.Kind.String(),
			Label:        a.Label,
			RevisitOf:    a.RevisitOf,
			ChangesQuery: a.ChangesQuery,
		})
	}
	return out
}
