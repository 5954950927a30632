// Package metrics provides small statistics and table-rendering helpers shared
// by the benchmark harnesses, the cmd tools and the experiment runners.
//
// Everything here is deterministic and allocation-light; the package exists so
// that experiment output (the rows and series the paper reports) is formatted
// uniformly across the repository.
package metrics
