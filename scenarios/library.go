// Package scenarios is the scenario library: the YAML incident files that
// `riptide-sim run` executes (format reference: docs/scenarios.md). They are
// embedded so tests, benchmarks and riptide-bench run the same bytes no
// matter which directory they start in.
package scenarios

import "embed"

// Files holds every *.yaml file of the library, by base name.
//
//go:embed *.yaml
var Files embed.FS
