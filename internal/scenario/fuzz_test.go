package scenario

import (
	"math/rand"
	"strings"
	"testing"

	"mascbgmp/internal/topology"
	"mascbgmp/scenarios"
)

// kindSeeds is one small spec per workload kind, for FuzzParse's corpus:
// each passes the run caps, so the fuzzer starts from inputs it executes.
var kindSeeds = []string{
	"name = \"u\"\n[topology]\nkind = \"as\"\n[workload]\nkind = \"uniform\"\ngroups = 8\nevents-per-step = 4\n",
	"name = \"z\"\n[topology]\nkind = \"as\"\n[workload]\nkind = \"zipf\"\ngroups = 8\nevents-per-step = 4\nzipf-s = 1.5\n",
	"name = \"a\"\n[topology]\nkind = \"as\"\n[workload]\nkind = \"affinity\"\ngroups = 8\nevents-per-step = 4\nzipf-s = 2\nlocality = 4\n",
	"name = \"f\"\n[topology]\nkind = \"as\"\n[workload]\nkind = \"flash-crowd\"\ngroups = 8\nhot-groups = 2\npeak-members = 20\nbackground-events-per-step = 3\n",
	"name = \"d\"\n[topology]\nkind = \"as\"\n[workload]\nkind = \"diurnal\"\ngroups = 8\nperiod = \"10m\"\nmembers-per-group = 3\n",
}

// FuzzParse feeds arbitrary bytes to the scenario-file parser — the format
// `benchsuite -scenario` reads from outside the program. It must never
// panic, and must answer with one of two things: a *ParseError that says
// where (a positive line, except when the complaint is that a section or
// key is missing, which has no line), or a Spec whose workload Compiles —
// Parse's validation may leave nothing for the engine to trip over. A
// small enough accepted workload is then run: its generator is started on
// a fixed 32-domain graph and emits a few steps against memView.
func FuzzParse(f *testing.F) {
	for _, name := range scenarios.Names() {
		f.Add(scenarios.TOML(name))
	}
	for _, tc := range tomlErrorCases {
		f.Add([]byte(tc.in))
	}
	for _, s := range kindSeeds {
		f.Add([]byte(s))
	}
	graph := topology.ASGraph(32, 4, 1)
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
		w := spec.Workload
		gen, err := Compile(w)
		if err != nil {
			t.Fatalf("Parse accepted a workload Compile rejects: %v\n%s", err, data)
		}
		// Ops per step grow with these; above the caps a run is slow, not
		// wrong.
		const maxGroups, maxPerStep = 256, 1024
		if w.Groups > maxGroups || w.EventsPerStep > maxPerStep || w.BackgroundPerStep > maxPerStep ||
			w.MembersPerGroup > maxPerStep {
			return
		}
		rng := rand.New(rand.NewSource(1))
		gen.Start(Env{Graph: graph, Groups: w.Groups}, rng)
		v := newMemView(graph.NumDomains(), w.Groups)
		for s := 0; s < min(w.Steps(), 8); s++ {
			gen.Emit(s, v, rng, v.apply)
		}
	})
}
