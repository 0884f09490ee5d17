package wrapper

import (
	"fmt"
	"regexp"
	"strings"

	"repro/internal/relalg"
	"repro/internal/store"
)

// This file implements the declarative Web-wrapping specification language
// of the prototype ([Qu96]: "a high level declarative language for the
// specification of what information can be extracted. A program in this
// specification language defines a transition network corresponding to the
// possible transitions from one Web-page to another, and regular
// expressions corresponding to what information is located on a page.")
//
// A spec is line-oriented:
//
//	# currency-exchange wrapper
//	relation r3(fromCur, toCur, rate:num)
//	start "/rates" -> index
//	state index
//	  follow "<a href=\"(/rate[^\"]*)\">" -> pair
//	state pair
//	  matchurl "from=([A-Z]+)" as fromCur
//	  matchurl "to=([A-Z]+)" as toCur
//	  match "rate: ([0-9.eE+-]+)" as rate
//	  emit
//
// Directives:
//
//	relation NAME(col[:type], ...)   declare the output relation
//	param COL                        required binding (becomes a URL hole)
//	start "URL" -> STATE             entry page; URL may contain {param}
//	state NAME                       begin a state block
//	follow "RE" -> STATE             traverse each captured URL
//	match "RE" as COL                extract capture 1 from the body
//	matchurl "RE" as COL             extract capture 1 from the page URL
//	rows "RE" as COL, COL, ...       one output tuple per body match
//	emit                             one output tuple from accumulated cols
//
// Column types are the CSV header's (store.ParseHeader): str, num, bool
// and their synonyms, str when omitted. Attribute values accumulated by
// match/matchurl flow into pages reached by follow, so detail pages
// inherit context from their parents.

// Spec is a compiled wrapping specification.
type Spec struct {
	Relation string
	Schema   relalg.Schema
	Params   []string
	StartURL string
	Start    string
	States   map[string]*SpecState

	src string
}

// SpecState is one node of the transition network.
type SpecState struct {
	Name    string
	Matches []MatchRule
	Rows    *RowsRule
	Emit    bool
	Follows []FollowRule
}

// MatchRule extracts one column from the page body or URL.
type MatchRule struct {
	Pattern *regexp.Regexp
	Column  string
	FromURL bool
}

// RowsRule extracts one tuple per match from a table-like page.
type RowsRule struct {
	Pattern *regexp.Regexp
	Columns []string
}

// FollowRule traverses captured links into another state.
type FollowRule struct {
	Pattern *regexp.Regexp
	Target  string
}

// Source returns the original spec text.
func (s *Spec) Source() string { return s.src }

// ParseSpec compiles a wrapping specification.
func ParseSpec(src string) (*Spec, error) {
	spec := &Spec{States: map[string]*SpecState{}, src: src}
	var cur *SpecState
	for ln, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		word, rest := cutWord(line)
		fail := func(format string, args ...interface{}) error {
			return fmt.Errorf("wrapper: spec line %d: %s", ln+1, fmt.Sprintf(format, args...))
		}
		switch word {
		case "relation":
			if spec.Relation != "" {
				return nil, fail("duplicate relation declaration")
			}
			name, schema, err := parseRelationDecl(rest)
			if err != nil {
				return nil, fail("%v", err)
			}
			spec.Relation, spec.Schema = name, schema
		case "param":
			col := strings.TrimSpace(rest)
			if col == "" {
				return nil, fail("param needs a column name")
			}
			spec.Params = append(spec.Params, col)
		case "start":
			url, rest2, err := parseQuoted(rest)
			if err != nil {
				return nil, fail("%v", err)
			}
			target, err := parseArrow(rest2)
			if err != nil {
				return nil, fail("%v", err)
			}
			spec.StartURL, spec.Start = url, target
		case "state":
			name := strings.TrimSpace(rest)
			if name == "" {
				return nil, fail("state needs a name")
			}
			if _, dup := spec.States[name]; dup {
				return nil, fail("duplicate state %s", name)
			}
			cur = &SpecState{Name: name}
			spec.States[name] = cur
		case "follow":
			if cur == nil {
				return nil, fail("follow outside a state block")
			}
			pat, rest2, err := parseQuotedRegexp(rest)
			if err != nil {
				return nil, fail("%v", err)
			}
			target, err := parseArrow(rest2)
			if err != nil {
				return nil, fail("%v", err)
			}
			cur.Follows = append(cur.Follows, FollowRule{Pattern: pat, Target: target})
		case "match", "matchurl":
			if cur == nil {
				return nil, fail("%s outside a state block", word)
			}
			pat, rest2, err := parseQuotedRegexp(rest)
			if err != nil {
				return nil, fail("%v", err)
			}
			col, err := parseAs(rest2)
			if err != nil {
				return nil, fail("%v", err)
			}
			cur.Matches = append(cur.Matches, MatchRule{Pattern: pat, Column: col, FromURL: word == "matchurl"})
		case "rows":
			if cur == nil {
				return nil, fail("rows outside a state block")
			}
			if cur.Rows != nil {
				return nil, fail("duplicate rows rule in state %s", cur.Name)
			}
			pat, rest2, err := parseQuotedRegexp(rest)
			if err != nil {
				return nil, fail("%v", err)
			}
			cols, err := parseAsList(rest2)
			if err != nil {
				return nil, fail("%v", err)
			}
			if pat.NumSubexp() != len(cols) {
				return nil, fail("rows pattern has %d captures for %d columns", pat.NumSubexp(), len(cols))
			}
			cur.Rows = &RowsRule{Pattern: pat, Columns: cols}
		case "emit":
			if cur == nil {
				return nil, fail("emit outside a state block")
			}
			cur.Emit = true
		default:
			return nil, fail("unknown directive %q", word)
		}
	}
	return spec, spec.validate()
}

// MustParseSpec is ParseSpec that panics; for compiled-in specs.
func MustParseSpec(src string) *Spec {
	s, err := ParseSpec(src)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *Spec) validate() error {
	if s.Relation == "" {
		return fmt.Errorf("wrapper: spec lacks a relation declaration")
	}
	if s.StartURL == "" || s.Start == "" {
		return fmt.Errorf("wrapper: spec lacks a start directive")
	}
	if _, ok := s.States[s.Start]; !ok {
		return fmt.Errorf("wrapper: start state %s undefined", s.Start)
	}
	colOK := func(c string) bool { return s.Schema.Index(c) >= 0 }
	for _, p := range s.Params {
		if !colOK(p) {
			return fmt.Errorf("wrapper: param %s is not a relation column", p)
		}
	}
	for _, st := range s.States {
		for _, m := range st.Matches {
			if !colOK(m.Column) {
				return fmt.Errorf("wrapper: state %s extracts unknown column %s", st.Name, m.Column)
			}
			if m.Pattern.NumSubexp() != 1 {
				return fmt.Errorf("wrapper: state %s: match pattern for %s needs exactly one capture", st.Name, m.Column)
			}
		}
		if st.Rows != nil {
			for _, c := range st.Rows.Columns {
				if !colOK(c) {
					return fmt.Errorf("wrapper: state %s rows names unknown column %s", st.Name, c)
				}
			}
		}
		for _, f := range st.Follows {
			if _, ok := s.States[f.Target]; !ok {
				return fmt.Errorf("wrapper: state %s follows into undefined state %s", st.Name, f.Target)
			}
			if f.Pattern.NumSubexp() != 1 {
				return fmt.Errorf("wrapper: state %s: follow pattern needs exactly one capture (the URL)", st.Name)
			}
		}
	}
	return nil
}

func cutWord(s string) (word, rest string) {
	s = strings.TrimSpace(s)
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		return s[:i], strings.TrimSpace(s[i+1:])
	}
	return s, ""
}

func parseRelationDecl(s string) (string, relalg.Schema, error) {
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(strings.TrimSpace(s), ")") {
		return "", relalg.Schema{}, fmt.Errorf("relation declaration must be NAME(col, ...)")
	}
	name := strings.TrimSpace(s[:open])
	if name == "" {
		return "", relalg.Schema{}, fmt.Errorf("relation needs a name")
	}
	inner := strings.TrimSpace(s)
	inner = inner[open+1 : len(inner)-1]
	schema, err := store.ParseHeader(strings.Split(inner, ","))
	return name, schema, err
}

// parseQuoted reads a leading double-quoted string with backslash escapes.
func parseQuoted(s string) (string, string, error) {
	s = strings.TrimSpace(s)
	if len(s) == 0 || s[0] != '"' {
		return "", "", fmt.Errorf("expected a quoted string in %q", s)
	}
	var b strings.Builder
	i := 1
	for i < len(s) {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling backslash")
			}
			b.WriteByte(s[i+1])
			i += 2
		case '"':
			return b.String(), strings.TrimSpace(s[i+1:]), nil
		default:
			b.WriteByte(s[i])
			i++
		}
	}
	return "", "", fmt.Errorf("unterminated quoted string")
}

func parseQuotedRegexp(s string) (*regexp.Regexp, string, error) {
	raw, rest, err := parseQuoted(s)
	if err != nil {
		return nil, "", err
	}
	re, err := regexp.Compile(raw)
	if err != nil {
		return nil, "", fmt.Errorf("bad pattern: %v", err)
	}
	return re, rest, nil
}

func parseArrow(s string) (string, error) {
	s = strings.TrimSpace(s)
	if rest, found := strings.CutPrefix(s, "->"); found {
		target := strings.TrimSpace(rest)
		if target != "" {
			return target, nil
		}
	}
	return "", fmt.Errorf("expected -> STATE, found %q", s)
}

func parseAs(s string) (string, error) {
	cols, err := parseAsList(s)
	if err != nil {
		return "", err
	}
	if len(cols) != 1 {
		return "", fmt.Errorf("expected a single column after as")
	}
	return cols[0], nil
}

func parseAsList(s string) ([]string, error) {
	s = strings.TrimSpace(s)
	rest, found := strings.CutPrefix(s, "as ")
	if !found {
		return nil, fmt.Errorf("expected as COL[, COL...], found %q", s)
	}
	var cols []string
	for _, p := range strings.Split(rest, ",") {
		c := strings.TrimSpace(p)
		if c == "" {
			return nil, fmt.Errorf("empty column in as-list")
		}
		cols = append(cols, c)
	}
	return cols, nil
}
