package core

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/transcript.txt from current behaviour")

const transcriptFile = "testdata/transcript.txt"

// transcript renders what Mediate answers for every template of the
// referee's table (shape_test.go) at its first literal vector: the
// mediated SQL and the branch explanations, or the error. Each case runs
// on a fresh Mediator, so every answer comes from a solve.
func transcript() string {
	var b strings.Builder
	for _, c := range shapeCases {
		sql := c.fill(shapeVectors[0])
		fmt.Fprintf(&b, "=== [%s, receiver %s] %s\n", c.reg, c.receiver, sql)
		med, err := New(shapeRegistries[c.reg]()).MediateSQL(sql, c.receiver)
		if err != nil {
			fmt.Fprintf(&b, "error: %v\n\n", err)
			continue
		}
		fmt.Fprintf(&b, "%s\n%s\n", med.SQL(), med.ExplainText())
	}
	return b.String()
}

// TestMediationTranscript holds the mediator's answers byte for byte to
// testdata/transcript.txt, so a change inside the solver that emits other
// solutions, or the same ones in another order, fails here. Regenerate
// with `go test ./internal/core/ -run TestMediationTranscript -update`
// only after an intended change of answers.
func TestMediationTranscript(t *testing.T) {
	got := transcript()
	if *update {
		if err := os.WriteFile(transcriptFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(transcriptFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("transcript differs from %s at line %d:\n got: %s\nwant: %s", transcriptFile, i+1, g, w)
		}
	}
}
