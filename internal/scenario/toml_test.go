package scenario

import (
	"strings"
	"testing"
)

func TestParseTOMLBasics(t *testing.T) {
	d, err := parseTOML("x.toml", []byte(`
name = "demo" # trailing comment
trials = 5

[topology]
kind = "as"   # quoted "#" below must survive
note-free = 3.5

[workload]
flag = true
label = "a # not a comment"
`))
	if err != nil {
		t.Fatalf("parseTOML: %v", err)
	}
	if got := d.section("").keys["name"]; got.raw != "demo" || !got.str {
		t.Fatalf("name = %+v, want quoted demo", got)
	}
	if got := d.section("").keys["trials"]; got.raw != "5" || got.str {
		t.Fatalf("trials = %+v, want bare 5", got)
	}
	if got := d.section("topology").keys["note-free"]; got.raw != "3.5" {
		t.Fatalf("note-free = %+v", got)
	}
	if got := d.section("workload").keys["label"]; got.raw != "a # not a comment" {
		t.Fatalf("label = %q, comment stripping entered a string", got.raw)
	}
	if got := d.section("workload").keys["flag"]; got.raw != "true" || got.str {
		t.Fatalf("flag = %+v", got)
	}
}

// tomlErrorCases are the malformed inputs TestParseTOMLErrors pins and
// FuzzParse starts from.
var tomlErrorCases = []struct {
	name string
	in   string
	line int
	want string
}{
	{"no-equals", "name = \"x\"\njunk line\n", 2, "expected key = value"},
	{"bad-section", "[topology\nkind = \"as\"\n", 1, "malformed section header"},
	{"bad-section-name", "[Topology]\n", 1, "invalid section name"},
	{"dup-section", "[topology]\n[workload]\n[topology]\n", 3, "duplicate section"},
	{"dup-key", "a = 1\na = 2\n", 2, `duplicate key "a"`},
	{"bad-key", "Name = \"x\"\n", 1, "invalid key"},
	{"missing-value", "a =\n", 1, "missing value"},
	{"unterminated", "a = \"oops\n", 1, "unterminated string"},
	{"array", "a = [1, 2]\n", 1, "arrays and inline tables"},
	{"bare-word", "\n\nkind = as\n", 3, "not a string, number, or bool"},
	{"trailing", "a = 1 2\n", 1, "unexpected text after value"},
}

// TestParseTOMLErrors pins the error line numbers: benchsuite surfaces
// these verbatim and verify.sh greps for file:line.
func TestParseTOMLErrors(t *testing.T) {
	for _, tc := range tomlErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseTOML("bad.toml", []byte(tc.in))
			if err == nil {
				t.Fatalf("parseTOML accepted %q", tc.in)
			}
			pe, ok := err.(*ParseError)
			if !ok {
				t.Fatalf("error type %T, want *ParseError", err)
			}
			if pe.Line != tc.line {
				t.Errorf("line = %d, want %d (%v)", pe.Line, tc.line, err)
			}
			if !strings.Contains(pe.Msg, tc.want) {
				t.Errorf("msg %q does not mention %q", pe.Msg, tc.want)
			}
			if !strings.HasPrefix(err.Error(), "bad.toml:") {
				t.Errorf("Error() = %q, want file:line prefix", err.Error())
			}
		})
	}
}

func TestParseErrorFormat(t *testing.T) {
	withLine := &ParseError{File: "s.toml", Line: 7, Msg: "boom"}
	if got := withLine.Error(); got != "s.toml:7: boom" {
		t.Errorf("Error() = %q", got)
	}
	noLine := &ParseError{File: "s.toml", Msg: "unreadable"}
	if got := noLine.Error(); got != "s.toml: unreadable" {
		t.Errorf("Error() = %q", got)
	}
}
