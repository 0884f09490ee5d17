package server

import (
	"repro/internal/relalg"
	"repro/internal/wire"
)

// RelationResponse is the boxing path both result endpoints encoded from
// until the row codec: the reference implementation the external tests
// hold the wire bytes to. It ships in no binary.
func RelationResponse(rel *relalg.Relation) wire.QueryResponse {
	resp := wire.QueryResponse{Columns: columnInfos(rel.Schema), Rows: [][]interface{}{}}
	for _, t := range rel.Tuples {
		row := make([]interface{}, len(t))
		for i, v := range t {
			row[i] = valueJSON(v)
		}
		resp.Rows = append(resp.Rows, row)
	}
	return resp
}

func valueJSON(v relalg.Value) interface{} {
	switch v.K {
	case relalg.KindNumber:
		return v.N
	case relalg.KindString:
		return v.S
	case relalg.KindBool:
		return v.B
	}
	return nil
}
