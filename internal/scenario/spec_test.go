package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mascbgmp/scenarios"
)

// exemplar parses one of the checked-in scenarios/*.toml files.
func exemplar(t *testing.T, name string) Spec {
	t.Helper()
	spec, err := Parse("scenarios/"+name+".toml", scenarios.TOML(name))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return spec
}

func TestParseFullSpec(t *testing.T) {
	spec := exemplar(t, "diurnal")
	if spec.Name != "diurnal" || spec.Trials != 3 {
		t.Errorf("meta = %q/%d", spec.Name, spec.Trials)
	}
	if spec.Topology.Kind != "as" || spec.Topology.Domains != 512 || spec.Topology.Peering != 64 {
		t.Errorf("topology = %+v", spec.Topology)
	}
	w := spec.Workload
	if w.Kind != KindDiurnal || w.Groups != 192 || w.PeakGroups != 192 || w.BaseGroups != 0 {
		t.Errorf("workload = %+v", w)
	}
	if w.Period != 24*time.Hour || w.LeaseLifetime != 2*time.Hour || w.ClaimLifetime != 4*time.Hour {
		t.Errorf("durations = %v/%v/%v", w.Period, w.LeaseLifetime, w.ClaimLifetime)
	}
	if got := w.Steps(); got != 192 { // 48h / 15m
		t.Errorf("Steps() = %d, want 192", got)
	}
}

func TestParseDefaults(t *testing.T) {
	spec, err := Parse("s.toml", []byte(`
name = "tiny"
[topology]
kind = "hierarchy"
[workload]
kind = "uniform"
`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if spec.Trials != 3 || spec.Topology.Top != 8 || spec.Topology.Children != 8 {
		t.Errorf("defaults: %+v", spec)
	}
	w := spec.Workload
	if w.Groups != 64 || w.RootDomains != 4 || w.Duration != time.Hour || w.Step != time.Minute {
		t.Errorf("workload defaults: %+v", w)
	}
	if w.AddressesPerGroup != 1 || w.LeaseLifetime != 0 || w.ClaimLifetime != 30*24*time.Hour {
		t.Errorf("address defaults: %+v", w)
	}
	if w.EventsPerStep != 1 {
		t.Errorf("events-per-step default = %d", w.EventsPerStep)
	}
}

// TestParseSpecErrors pins validation errors and their line numbers:
// unknown keys point at the key's own line, cross-field failures at the
// section header.
func TestParseSpecErrors(t *testing.T) {
	base := func(workload string) string {
		return "name = \"x\"\n[topology]\nkind = \"as\"\n[workload]\n" + workload
	}
	cases := []struct {
		name string
		in   string
		want string
		line int
	}{
		{"missing-name", "[topology]\nkind = \"as\"\n[workload]\nkind = \"uniform\"\n",
			`missing required key "name"`, 0},
		{"empty-name", "name = \"\"\n[topology]\nkind = \"as\"\n[workload]\nkind = \"uniform\"\n",
			`key "name": expected a non-empty quoted string`, 1},
		{"empty-kind", base("kind = \"\"\n"),
			`key "kind": expected a non-empty quoted string`, 5},
		{"missing-topology", "name = \"x\"\n[workload]\nkind = \"uniform\"\n",
			"missing [topology] section", 0},
		{"missing-workload", "name = \"x\"\n[topology]\nkind = \"as\"\n",
			"missing [workload] section", 0},
		{"unknown-section", base("kind = \"uniform\"\n") + "[extra]\na = 1\n",
			"unknown section [extra]", 6},
		{"bad-topo-kind", "name = \"x\"\n[topology]\nkind = \"ring\"\n[workload]\nkind = \"uniform\"\n",
			`unknown topology kind "ring"`, 3},
		{"bad-workload-kind", base("kind = \"bursty\"\n"),
			`unknown workload kind "bursty"`, 5},
		{"unknown-key", base("kind = \"uniform\"\nzipf-s = 1.3\n"),
			`unknown key "zipf-s"`, 6},
		{"foreign-knob", base("kind = \"diurnal\"\nevents-per-step = 9\n"),
			`unknown key "events-per-step"`, 6},
		{"bad-int", "name = \"x\"\n[topology]\nkind = \"as\"\ndomains = \"lots\"\n[workload]\nkind = \"uniform\"\n",
			`key "domains": invalid integer`, 4},
		{"bare-duration", base("kind = \"uniform\"\nduration = 30\n"),
			"durations are quoted strings", 6},
		{"bad-duration", base("kind = \"uniform\"\nduration = \"forever\"\n"),
			`invalid duration "forever"`, 6},
		{"zipf-s-low", base("kind = \"zipf\"\nzipf-s = 0.5\n"),
			"zipf needs zipf-s > 1", 4},
		{"zipf-v-inf", base("kind = \"zipf\"\nzipf-v = inf\n"),
			`key "zipf-v": invalid number "inf"`, 6},
		{"flash-phases", base("kind = \"flash-crowd\"\npeak-members = 10\nramp = \"50m\"\nhold = \"20m\"\n"),
			"ramp + hold < duration", 4},
		{"diurnal-range", base("kind = \"diurnal\"\nbase-groups = 64\npeak-groups = 32\n"),
			"base-groups < peak-groups", 4},
		{"trials", "name = \"x\"\ntrials = 0\n[topology]\nkind = \"as\"\n[workload]\nkind = \"uniform\"\n",
			"trials must be >= 1", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("s.toml", []byte(tc.in))
			if err == nil {
				t.Fatalf("Parse accepted:\n%s", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err.Error(), tc.want)
			}
			if tc.line > 0 {
				pe := err.(*ParseError)
				if pe.Line != tc.line {
					t.Errorf("line = %d, want %d (%v)", pe.Line, tc.line, err)
				}
			}
		})
	}
}

func TestParseFileResolvesTopologyPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.toml")
	body := "name = \"filed\"\n[topology]\nkind = \"file\"\npath = \"net.topo\"\n[workload]\nkind = \"uniform\"\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := ParseFile(path)
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	if want := filepath.Join(dir, "net.topo"); spec.Topology.Path != want {
		t.Errorf("path = %q, want %q", spec.Topology.Path, want)
	}
	if _, err := ParseFile(filepath.Join(dir, "missing.toml")); err == nil {
		t.Error("ParseFile on a missing file succeeded")
	}
}

// TestBuiltinsParse guards the checked-in exemplars the workloads suite
// compiles in.
func TestBuiltinsParse(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range scenarios.Names() {
		spec := exemplar(t, name)
		if spec.Name != name {
			t.Errorf("scenarios/%s.toml parses to name %q", name, spec.Name)
		}
		if spec.Description == "" {
			t.Errorf("exemplar %q has no description", name)
		}
		if seen[spec.Name] {
			t.Errorf("duplicate exemplar name %q", spec.Name)
		}
		seen[spec.Name] = true
		if _, err := Compile(spec.Workload); err != nil {
			t.Errorf("exemplar %q does not compile: %v", name, err)
		}
	}
}
