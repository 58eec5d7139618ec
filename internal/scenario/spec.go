package scenario

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// Spec is one parsed, validated scenario file: a topology to build, a
// workload to run over it, and the suite metadata the benchmark registry
// needs. Seeds are deliberately absent — per-trial seeds always derive
// from the harness suite seed so file-loaded scenarios obey the same
// determinism discipline as built-in suites.
type Spec struct {
	// Name is the registry name the scenario runs under.
	Name string
	// Description is the one-line summary benchsuite -list prints.
	Description string
	// Trials is the suite's default trial count.
	Trials int

	Topology TopologySpec
	Workload WorkloadSpec
}

// TopologySpec selects the inter-domain graph.
type TopologySpec struct {
	// Kind is "as" (preferential-attachment AS graph), "hierarchy"
	// (the regular Fig 2 provider hierarchy), or "file" (a topogen
	// edge-list file).
	Kind string
	// Domains and Peering parameterize kind "as".
	Domains, Peering int
	// Top and Children parameterize kind "hierarchy".
	Top, Children int
	// Path locates the edge-list file for kind "file". ParseFile
	// resolves it relative to the scenario file's directory.
	Path string
}

// Workload kinds.
const (
	KindUniform    = "uniform"
	KindFlashCrowd = "flash-crowd"
	KindDiurnal    = "diurnal"
	KindZipf       = "zipf"
	KindAffinity   = "affinity"
)

// WorkloadSpec is the composable workload section: the knobs every
// generator shares plus the kind-specific ones. Validation rejects keys
// that do not belong to the declared kind, so a config cannot silently
// carry a dead knob.
type WorkloadSpec struct {
	// Kind names the membership generator (Kind* constants).
	Kind string
	// Groups is the number of group slots.
	Groups int
	// RootDomains is how many best-connected domains run MASC
	// allocators and root the groups (round-robin assignment).
	RootDomains int
	// Duration is the simulated span; Step is the engine tick. The
	// run executes Duration/Step steps.
	Duration, Step time.Duration
	// SendsPerGroup is the steady-state packets per live group after
	// the membership phase.
	SendsPerGroup int
	// AddressesPerGroup is the MAAS block size a live group leases
	// from its root's allocator.
	AddressesPerGroup int
	// LeaseLifetime bounds each group's address lease; live groups
	// re-lease when it lapses, idle groups let it expire — that decay
	// is what drives allocator occupancy back down. Zero means the
	// whole run.
	LeaseLifetime time.Duration
	// ClaimLifetime is the MASC claim lifetime the root allocators
	// use (the paper's default is 30 days; diurnal runs use hours so
	// drained claims collapse within the simulated window).
	ClaimLifetime time.Duration

	// EventsPerStep is the op rate for uniform/zipf/affinity.
	EventsPerStep int
	// ZipfS and ZipfV parameterize the Zipf group-popularity draw
	// (s > 1, v >= 1). For affinity, ZipfS == 0 keeps the group pick
	// uniform.
	ZipfS, ZipfV float64
	// Affinity and Locality parameterize affinity: each group gets a
	// home locality of the Locality nearest domains around a random
	// center, and a new member is drawn from it with probability
	// Affinity (uniform otherwise).
	Affinity float64
	Locality int

	// HotGroups, PeakMembers, Ramp, Hold, and BackgroundPerStep
	// parameterize flash-crowd: HotGroups groups ramp to PeakMembers
	// member domains over Ramp, stay for Hold, and decay for the rest
	// of the run while BackgroundPerStep uniform ops churn the other
	// groups.
	HotGroups         int
	PeakMembers       int
	Ramp, Hold        time.Duration
	BackgroundPerStep int

	// Period, BaseGroups, PeakGroups, and MembersPerGroup
	// parameterize diurnal: the live-group count swings between
	// BaseGroups and PeakGroups on a (1-cos)/2 wave of the given
	// Period, each live group holding MembersPerGroup members.
	Period                 time.Duration
	BaseGroups, PeakGroups int
	MembersPerGroup        int
}

// Steps returns the number of engine steps the workload runs.
func (w WorkloadSpec) Steps() int {
	if w.Step <= 0 {
		return 1
	}
	n := int(w.Duration / w.Step)
	if n < 1 {
		n = 1
	}
	return n
}

// ParseFile reads and parses a scenario file, resolving a file-kind
// topology path relative to the scenario file's directory.
func ParseFile(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, &ParseError{File: path, Msg: err.Error()}
	}
	spec, err := Parse(path, data)
	if err != nil {
		return Spec{}, err
	}
	if spec.Topology.Kind == "file" && !filepath.IsAbs(spec.Topology.Path) {
		spec.Topology.Path = filepath.Join(filepath.Dir(path), spec.Topology.Path)
	}
	return spec, nil
}

// Parse parses scenario-file bytes. file labels error positions.
func Parse(file string, data []byte) (Spec, error) {
	d, err := parseTOML(file, data)
	if err != nil {
		return Spec{}, err
	}
	var spec Spec

	top := newReader(d, "")
	spec.Name = top.requiredStr("name")
	spec.Description = top.str("description", "")
	spec.Trials = top.num("trials", 3)
	if err := top.finish(); err != nil {
		return Spec{}, err
	}
	if spec.Name != "" && !validName(spec.Name) {
		return Spec{}, &ParseError{file, top.sec.keys["name"].line,
			fmt.Sprintf("scenario name %q: use lowercase letters, digits, dashes", spec.Name)}
	}
	if spec.Trials < 1 {
		return Spec{}, &ParseError{file, top.sec.keys["trials"].line, "trials must be >= 1"}
	}

	if err := decodeTopology(d, &spec.Topology); err != nil {
		return Spec{}, err
	}
	if err := decodeWorkload(d, &spec.Workload); err != nil {
		return Spec{}, err
	}
	for _, name := range d.order {
		if name != "" && name != "topology" && name != "workload" {
			return Spec{}, &ParseError{file, d.sections[name].line,
				fmt.Sprintf("unknown section [%s] (expected [topology] and [workload])", name)}
		}
	}
	return spec, nil
}

func decodeTopology(d *doc, ts *TopologySpec) error {
	r := newReader(d, "topology")
	if r.sec == nil {
		return &ParseError{d.file, 0, "missing [topology] section"}
	}
	ts.Kind = r.requiredStr("kind")
	switch ts.Kind {
	case "as":
		ts.Domains = r.num("domains", 512)
		ts.Peering = r.num("peering", 64)
	case "hierarchy":
		ts.Top = r.num("top", 8)
		ts.Children = r.num("children", 8)
	case "file":
		ts.Path = r.requiredStr("path")
	case "":
		// requiredStr already recorded the error.
	default:
		return &ParseError{d.file, r.sec.keys["kind"].line,
			fmt.Sprintf("unknown topology kind %q (want as, hierarchy, or file)", ts.Kind)}
	}
	if err := r.finish(); err != nil {
		return err
	}
	if ts.Kind == "as" && (ts.Domains < 2 || ts.Peering < 0) {
		return &ParseError{d.file, r.sec.line, "as topology needs domains >= 2 and peering >= 0"}
	}
	if ts.Kind == "hierarchy" && (ts.Top < 1 || ts.Children < 0) {
		return &ParseError{d.file, r.sec.line, "hierarchy topology needs top >= 1 and children >= 0"}
	}
	return nil
}

func decodeWorkload(d *doc, w *WorkloadSpec) error {
	r := newReader(d, "workload")
	if r.sec == nil {
		return &ParseError{d.file, 0, "missing [workload] section"}
	}
	w.Kind = r.requiredStr("kind")
	w.Groups = r.num("groups", 64)
	w.RootDomains = r.num("root-domains", 4)
	w.Duration = r.dur("duration", time.Hour)
	w.Step = r.dur("step", time.Minute)
	w.SendsPerGroup = r.num("sends-per-group", 2)
	w.AddressesPerGroup = r.num("addresses-per-group", 1)
	w.LeaseLifetime = r.dur("lease-lifetime", 0)
	w.ClaimLifetime = r.dur("claim-lifetime", 30*24*time.Hour)

	switch w.Kind {
	case KindUniform:
		w.EventsPerStep = r.num("events-per-step", 1)
	case KindZipf:
		w.EventsPerStep = r.num("events-per-step", 1)
		w.ZipfS = r.float("zipf-s", 1.2)
		w.ZipfV = r.float("zipf-v", 1.0)
	case KindAffinity:
		w.EventsPerStep = r.num("events-per-step", 1)
		w.ZipfS = r.float("zipf-s", 0)
		w.ZipfV = r.float("zipf-v", 1.0)
		w.Affinity = r.float("affinity", 0.8)
		w.Locality = r.num("locality", 16)
	case KindFlashCrowd:
		w.HotGroups = r.num("hot-groups", 1)
		w.PeakMembers = r.num("peak-members", 0)
		w.Ramp = r.dur("ramp", w.Duration/4)
		w.Hold = r.dur("hold", w.Duration/4)
		w.BackgroundPerStep = r.num("background-events-per-step", 0)
	case KindDiurnal:
		w.Period = r.dur("period", 24*time.Hour)
		w.BaseGroups = r.num("base-groups", 0)
		w.PeakGroups = r.num("peak-groups", w.Groups)
		w.MembersPerGroup = r.num("members-per-group", 4)
	case "":
		// requiredStr already recorded the error.
	default:
		return &ParseError{d.file, r.sec.keys["kind"].line,
			fmt.Sprintf("unknown workload kind %q (want %s, %s, %s, %s, or %s)",
				w.Kind, KindUniform, KindFlashCrowd, KindDiurnal, KindZipf, KindAffinity)}
	}
	if err := r.finish(); err != nil {
		return err
	}
	// Every key has parsed, so a failure is about the combination: point
	// at the [workload] section header line.
	if err := w.validate(); err != nil {
		return &ParseError{d.file, r.sec.line, err.Error()}
	}
	return nil
}

// validate applies the cross-field workload rules, the one copy both
// Parse and Compile enforce. Flash-crowd phases must fit both in time and
// in whole steps: the generator counts them in steps.
func (w WorkloadSpec) validate() error {
	bad := errors.New
	switch {
	case w.Groups < 1:
		return bad("groups must be >= 1")
	case w.RootDomains < 1:
		return bad("root-domains must be >= 1")
	case w.Step <= 0 || w.Duration < w.Step:
		return bad("need step > 0 and duration >= step")
	case w.SendsPerGroup < 0 || w.AddressesPerGroup < 1:
		return bad("need sends-per-group >= 0 and addresses-per-group >= 1")
	case w.LeaseLifetime < 0 || w.ClaimLifetime <= 0:
		return bad("need lease-lifetime >= 0 and claim-lifetime > 0")
	}
	switch w.Kind {
	case KindUniform:
		if w.EventsPerStep < 1 {
			return bad("events-per-step must be >= 1")
		}
	case KindZipf:
		if w.EventsPerStep < 1 {
			return bad("events-per-step must be >= 1")
		}
		if w.ZipfS <= 1 || w.ZipfV < 1 {
			return bad("zipf needs zipf-s > 1 and zipf-v >= 1")
		}
		if w.Groups < 2 {
			return bad("zipf needs groups >= 2")
		}
	case KindAffinity:
		if w.EventsPerStep < 1 {
			return bad("events-per-step must be >= 1")
		}
		if w.ZipfS != 0 && (w.ZipfS <= 1 || w.ZipfV < 1) {
			return bad("affinity with a zipf group pick needs zipf-s > 1 and zipf-v >= 1")
		}
		if w.Affinity < 0 || w.Affinity > 1 {
			return bad("affinity must be in [0, 1]")
		}
		if w.Locality < 1 {
			return bad("locality must be >= 1")
		}
	case KindFlashCrowd:
		if w.HotGroups < 1 || w.HotGroups >= w.Groups {
			return bad("flash-crowd needs 1 <= hot-groups < groups")
		}
		if w.PeakMembers < 1 {
			return bad("flash-crowd needs peak-members >= 1")
		}
		ramp, hold := int(w.Ramp/w.Step), int(w.Hold/w.Step)
		if ramp < 1 || w.Hold < 0 || w.Ramp+w.Hold >= w.Duration || ramp+hold >= w.Steps() {
			return fmt.Errorf("flash-crowd needs ramp >= step, hold >= 0, and ramp + hold < duration (the rest is the decay): ramp=%d hold=%d of %d steps",
				ramp, hold, w.Steps())
		}
		if w.BackgroundPerStep < 0 {
			return bad("background-events-per-step must be >= 0")
		}
	case KindDiurnal:
		if w.Period < 2*w.Step {
			return bad("diurnal needs period >= 2*step")
		}
		if w.BaseGroups < 0 || w.PeakGroups > w.Groups || w.BaseGroups >= w.PeakGroups {
			return bad("diurnal needs 0 <= base-groups < peak-groups <= groups")
		}
		if w.MembersPerGroup < 1 {
			return bad("members-per-group must be >= 1")
		}
	default:
		return fmt.Errorf("unknown workload kind %q", w.Kind)
	}
	return nil
}

// reader is a typed, consumption-tracking view of one section: every
// get marks its key used, and finish rejects the leftovers so configs
// cannot carry knobs their kind ignores. The first error wins; later
// getters no-op so decode code stays linear.
type reader struct {
	d    *doc
	sec  *section
	name string
	used map[string]bool
	err  error
}

func newReader(d *doc, name string) *reader {
	return &reader{d: d, sec: d.section(name), name: name, used: map[string]bool{}}
}

func (r *reader) get(key string) (value, bool) {
	if r.sec == nil {
		return value{}, false
	}
	r.used[key] = true
	v, ok := r.sec.keys[key]
	return v, ok
}

func (r *reader) fail(line int, format string, args ...any) {
	if r.err == nil {
		r.err = &ParseError{r.d.file, line, fmt.Sprintf(format, args...)}
	}
}

func (r *reader) str(key, def string) string {
	v, ok := r.get(key)
	if !ok || r.err != nil {
		return def
	}
	if !v.str {
		r.fail(v.line, "key %q: expected a quoted string", key)
		return def
	}
	return v.raw
}

func (r *reader) requiredStr(key string) string {
	v, ok := r.get(key)
	if r.err != nil {
		return ""
	}
	if !ok {
		line := 0
		if r.sec != nil {
			line = r.sec.line
		}
		where := "at top level"
		if r.name != "" {
			where = "in [" + r.name + "]"
		}
		r.fail(line, "missing required key %q %s", key, where)
		return ""
	}
	if !v.str || v.raw == "" {
		r.fail(v.line, "key %q: expected a non-empty quoted string", key)
		return ""
	}
	return v.raw
}

func (r *reader) num(key string, def int) int {
	v, ok := r.get(key)
	if !ok || r.err != nil {
		return def
	}
	n, err := strconv.Atoi(v.raw)
	if err != nil || v.str {
		r.fail(v.line, "key %q: invalid integer %q", key, v.raw)
		return def
	}
	return n
}

func (r *reader) float(key string, def float64) float64 {
	v, ok := r.get(key)
	if !ok || r.err != nil {
		return def
	}
	// NaN and the infinities parse, and would pass every range check
	// below them: a Zipf sampler built on one never returns.
	f, err := strconv.ParseFloat(v.raw, 64)
	if err != nil || v.str || math.IsNaN(f) || math.IsInf(f, 0) {
		r.fail(v.line, "key %q: invalid number %q", key, v.raw)
		return def
	}
	return f
}

func (r *reader) dur(key string, def time.Duration) time.Duration {
	v, ok := r.get(key)
	if !ok || r.err != nil {
		return def
	}
	if !v.str {
		r.fail(v.line, "key %q: durations are quoted strings like \"30m\"", key)
		return def
	}
	dur, err := time.ParseDuration(v.raw)
	if err != nil {
		r.fail(v.line, "key %q: invalid duration %q", key, v.raw)
		return def
	}
	if dur < 0 {
		r.fail(v.line, "key %q: negative duration %q", key, v.raw)
		return def
	}
	return dur
}

// finish reports the first accumulated error, or flags the first unused
// key (in file order) as unknown for this section/kind.
func (r *reader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.sec == nil {
		return nil
	}
	for _, key := range r.sec.order {
		if !r.used[key] {
			v := r.sec.keys[key]
			where := "at top level"
			if r.name != "" {
				where = "in [" + r.name + "]"
			}
			return &ParseError{r.d.file, v.line, fmt.Sprintf("unknown key %q %s", key, where)}
		}
	}
	return nil
}
