package client_test

// The client reads rows with wire.ParseRow where a record has the plain
// shape the server writes and with encoding/json everywhere else. These
// tests serve canned bodies — the server's own layout and layouts it never
// writes — and hold the client to what encoding/json decodes from them.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/client"
	"repro/internal/wire"
)

// cannedConn connects to a server that answers both result endpoints with
// body.
func cannedConn(t *testing.T, body string) *client.Conn {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/schema" {
			fmt.Fprint(w, `{"relations":{},"contexts":["c2"]}`)
			return
		}
		fmt.Fprint(w, body)
	}))
	t.Cleanup(ts.Close)
	conn, err := client.Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestQueryBodyDecodesAsEncodingJSON(t *testing.T) {
	long := strings.Repeat("x", 100<<10)
	bodies := map[string]string{
		"server layout":   `{"columns":[{"name":"cname","type":"string"},{"name":"revenue","type":"number"}],"rows":[["NTT",9600000],["IBM",1e+21],["é",-0]],"mediatedSQL":"SELECT 1 UNION SELECT 2","branches":3}` + "\n",
		"naive":           `{"columns":[{"name":"n","type":"number"}],"rows":[[1],[2.5],[null],[true]]}` + "\n",
		"empty":           `{"columns":[{"name":"n","type":"number"}],"rows":[]}` + "\n",
		"zero columns":    `{"columns":null,"rows":[[],[]]}` + "\n",
		"warnings":        `{"columns":[{"name":"n","type":"number"}],"rows":[[1]],"mediatedSQL":"q","branches":3,"warnings":[{"branch":2,"source":"currencyweb","error":"down"}]}` + "\n",
		"escaped strings": `{"columns":[{"name":"s","type":"string"}],"rows":[["plain"],["a\u003cb"],["q\"uote"],["\ufffd"]],"branches":1}` + "\n",
		"bracket text":    `{"columns":[{"name":"s","type":"string"}],"rows":[["],["],["x,\"rows\":[[1]]"]],"mediatedSQL":",\"rows\":[[7]]"}` + "\n",
		"long value":      `{"columns":[{"name":"s","type":"string"}],"rows":[["` + long + `"],["y"]]}` + "\n",
		"other order":     `{"rows":[["NTT",9600000]],"branches":2,"columns":[{"name":"cname","type":"string"}]}`,
		"nested rows key": `{"columns":[{"name":"a","type":"string","rows":[[0]]}],"rows":[["x"]]}`,
		"spaced":          `{"columns": [{"name":"n","type":"number"}], "rows": [[1], [2]], "branches": 3}`,
	}
	var pretty bytes.Buffer
	if err := json.Indent(&pretty, []byte(bodies["server layout"]), "", "  "); err != nil {
		t.Fatal(err)
	}
	bodies["pretty-printed"] = pretty.String()
	for name, body := range bodies {
		t.Run(name, func(t *testing.T) {
			var want wire.QueryResponse
			if err := json.Unmarshal([]byte(body), &want); err != nil {
				t.Fatal(err)
			}
			got, err := cannedConn(t, body).QueryCtx(context.Background(), "SELECT 1", "c2", client.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) ||
				got.MediatedSQL != want.MediatedSQL || got.Branches != want.Branches || !reflect.DeepEqual(got.Warnings, want.Warnings) {
				t.Errorf("client decoded\n %+v\nencoding/json decodes\n %+v", *got, want)
			}
		})
	}
	for name, body := range map[string]string{
		"cut in a row":     `{"columns":[{"name":"n","type":"number"}],"rows":[[1],[2`,
		"cut after rows":   `{"columns":[{"name":"n","type":"number"}],"rows":[[1],[2]]`,
		"garbage in tail":  `{"columns":[{"name":"n","type":"number"}],"rows":[[1]],"branches":x}`,
		"number too large": `{"columns":[{"name":"n","type":"number"}],"rows":[[1e999]]}`,
	} {
		if res, err := cannedConn(t, body).QueryCtx(context.Background(), "SELECT 1", "c2", client.Options{}); err == nil {
			t.Errorf("%s: decoded %+v from an invalid body", name, *res)
		}
	}
}

func TestStreamRecordsDecodeAsEncodingJSON(t *testing.T) {
	long := strings.Repeat("y", 100<<10) // longer than the cursor's read buffer
	lines := []string{
		`{"type":"header","columns":[{"name":"s","type":"string"},{"name":"n","type":"number"}],"mediatedSQL":"q","branches":3}`,
		`{"type":"row","values":["NTT",9600000]}`,
		`{"type":"row","values":["a\u003cb",1e-7]}`,
		`{"type":"row","values":["` + long + `",-0]}`,
		`{"type":"row","values":[null,true]}`,
		`{"type":"row", "values": ["spaced", 2]}`,
		`{"values":["keys swapped",3],"type":"row"}`,
		`{"type":"row"}`,
		`{"type":"stats","rows":7,"warnings":[{"branch":2,"source":"currencyweb","error":"down"}]}`,
	}
	cur, err := cannedConn(t, strings.Join(lines, "\n")+"\n").QueryStream(context.Background(), "SELECT 1", "c2", false, client.Options{PartialResults: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if cur.Branches() != 3 || cur.MediatedSQL() != "q" || len(cur.Columns()) != 2 {
		t.Errorf("header: %d branches, sql %q, columns %v", cur.Branches(), cur.MediatedSQL(), cur.Columns())
	}
	var rows [][]interface{}
	for _, line := range lines[1:8] {
		var rec wire.StreamRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if !cur.Next() {
			t.Fatalf("stream ended before %.60s: %v", line, cur.Err())
		}
		if !reflect.DeepEqual(cur.Row(), rec.Values) {
			t.Errorf("%.60s:\n cursor        %v\n encoding/json %v", line, cur.Row(), rec.Values)
		}
		rows = append(rows, cur.Row())
	}
	if cur.Next() || cur.Err() != nil || cur.Rows() != 7 {
		t.Errorf("after the last row: rows=%d err=%v", cur.Rows(), cur.Err())
	}
	if w := cur.Warnings(); len(w) != 1 || w[0].Source != "currencyweb" {
		t.Errorf("trailer warnings = %+v", w)
	}
	if rows[0][0] != "NTT" || rows[1][0] != "a<b" {
		t.Errorf("a delivered row changed under later reads: %v %v", rows[0], rows[1])
	}
}

// TestStreamCutShort: a stream that stops without its trailer — between
// records or in the middle of one — ends the cursor with an error.
func TestStreamCutShort(t *testing.T) {
	header := `{"type":"header","columns":[{"name":"n","type":"number"}]}` + "\n"
	for name, body := range map[string]string{
		"between records": header + `{"type":"row","values":[1]}` + "\n",
		"inside a row":    header + `{"type":"row","values":[1]}` + "\n" + `{"type":"row","val`,
		"inside a value":  header + `{"type":"row","values":[12`,
	} {
		cur, err := cannedConn(t, body).QueryStream(context.Background(), "SELECT 1", "c2", false, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for cur.Next() {
			n++
		}
		if err := cur.Err(); err == nil || n > 1 {
			t.Errorf("%s: %d rows, err = %v; want an error after at most one row", name, n, err)
		}
		cur.Close()
	}
	if _, err := cannedConn(t, `{"type":"hea`).QueryStream(context.Background(), "SELECT 1", "c2", false, client.Options{}); err == nil {
		t.Error("a stream cut inside its header opened a cursor")
	}
}
