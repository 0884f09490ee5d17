package store

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"

	"repro/internal/relalg"
)

// The typed CSV header and CSV export. The header row declares columns as
// "name:type" where type is one of str, num, bool (defaulting to str),
// e.g.:
//
//	cname:str,revenue:num,currency:str
//	IBM,100000000,USD

// ParseHeader converts a CSV header row into a schema.
func ParseHeader(header []string) (relalg.Schema, error) {
	var schema relalg.Schema
	for _, h := range header {
		name := strings.TrimSpace(h)
		kind := relalg.KindString
		if i := strings.LastIndex(name, ":"); i >= 0 {
			switch strings.TrimSpace(name[i+1:]) {
			case "str", "string", "":
				kind = relalg.KindString
			case "num", "number", "float", "int":
				kind = relalg.KindNumber
			case "bool":
				kind = relalg.KindBool
			default:
				return relalg.Schema{}, fmt.Errorf("store: unknown column type in %q", h)
			}
			name = strings.TrimSpace(name[:i])
		}
		if name == "" {
			return relalg.Schema{}, fmt.Errorf("store: empty column name in header")
		}
		schema.Columns = append(schema.Columns, relalg.Column{Name: name, Type: kind})
	}
	return schema, nil
}

// FormatHeader renders schema as the typed header ParseHeader reads. A
// KindNull column, which no source declares, renders as "null".
func FormatHeader(schema relalg.Schema) []string {
	header := make([]string, len(schema.Columns))
	for i, c := range schema.Columns {
		tag := "str"
		switch c.Type {
		case relalg.KindNumber:
			tag = "num"
		case relalg.KindBool:
			tag = "bool"
		case relalg.KindNull:
			tag = "null"
		}
		header[i] = c.Name + ":" + tag
	}
	return header
}

// WriteCSV writes a relation as CSV with a typed header and an empty
// field for NULL: the format filesrc serves back.
func WriteCSV(rel *relalg.Relation, w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(FormatHeader(rel.Schema)); err != nil {
		return err
	}
	for _, t := range rel.Tuples {
		rec := make([]string, len(t))
		for i, v := range t {
			if v.IsNull() {
				rec[i] = ""
			} else {
				rec[i] = v.String()
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
