// Package scenarios holds the exemplar workload files. The *.toml files
// in this directory are the single source: they are what
// `benchsuite -scenario` loads from disk, and this package embeds the
// same bytes so the built-in `workloads` suite and the tests run exactly
// what is checked in.
package scenarios

import "embed"

//go:embed *.toml
var files embed.FS

// Names returns the exemplars in presentation order.
func Names() []string {
	return []string{"flash-crowd", "diurnal", "zipf", "affinity"}
}

// TOML returns the contents of <name>.toml. It panics on a name outside
// Names: the files are compiled in, so a miss is a programming error.
func TOML(name string) []byte {
	data, err := files.ReadFile(name + ".toml")
	if err != nil {
		panic("scenarios: " + err.Error())
	}
	return data
}
