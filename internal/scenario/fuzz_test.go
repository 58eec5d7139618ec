package scenario

import (
	"strings"
	"testing"

	"mascbgmp/scenarios"
)

// FuzzParse feeds arbitrary bytes to the scenario-file parser — the format
// `benchsuite -scenario` reads from outside the program. It must never
// panic, and must answer with one of two things: a *ParseError that says
// where (a positive line, except when the complaint is that a section or
// key is missing, which has no line), or a Spec whose workload Compiles —
// Parse's validation may leave nothing for the engine to trip over.
func FuzzParse(f *testing.F) {
	for _, name := range scenarios.Names() {
		f.Add(scenarios.TOML(name))
	}
	for _, tc := range tomlErrorCases {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Parse("fuzz.toml", data)
		if err != nil {
			pe, ok := err.(*ParseError)
			if !ok {
				t.Fatalf("error type %T (%v), want *ParseError", err, err)
			}
			if pe.Line < 0 || (pe.Line == 0 && !strings.Contains(pe.Msg, "missing")) {
				t.Fatalf("error without a position: %v", err)
			}
			return
		}
		if spec.Name == "" || spec.Trials < 1 {
			t.Fatalf("accepted a spec without name or trials: %+v", spec)
		}
		if _, err := Compile(spec.Workload); err != nil {
			t.Fatalf("Parse accepted a workload Compile rejects: %v\n%s", err, data)
		}
	})
}
