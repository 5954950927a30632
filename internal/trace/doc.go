// Package trace provides datacenter workload traces for the large-scale
// evaluation of Section 6.6.2 (Figure 10).
//
// The paper replays the public Google cluster traces (12,583 machines, 29
// days of jobs/tasks with booked and used CPU and memory). Those traces are
// hundreds of gigabytes and are not redistributable with this repository, so
// the package provides:
//
//   - a deterministic synthetic generator that reproduces the statistical
//     properties the consolidation results depend on: thousands of tasks with
//     exponential-ish durations, diurnal arrival rates, booked resources well
//     above used resources, and an overall average utilization well below 50%;
//   - the paper's "modified" variant, in which the memory demand is twice the
//     CPU demand, matching the demand trend of Figure 2;
//   - CSV encoding/decoding in a compact schema so that users who do have the
//     real traces can convert and replay them — gzip-aware on both sides
//     (EncodeCSV writes .csv.gz on request, DecodeCSV sniffs the magic
//     bytes), since month-scale conversions balloon on disk as flat CSV;
//   - a streaming arrival feed (Stream) that yields arrivals and departures
//     one event at a time in causal order, the input of the online control
//     plane (internal/autopilot), which must never see the future or the
//     materialized population;
//   - a scenario engine of seeded workload families (Family, GenerateFamily):
//     diurnal sinusoid, flash-crowd bursts, serverless short tasks,
//     gang-scheduled ML batches and heavy-tail Pareto sizes, composable via
//     Compose/Overlay into mixed workloads with disjoint ID namespaces;
//   - a record-at-a-time importer (Import, ImportFile) for .csv and
//     .csv.gz traces bigger than RAM, with pluggable column schemas (Schema;
//     ClusterSchema adapts the public cluster-trace layout) and row-numbered
//     rejection of malformed tasks and duplicate IDs.
package trace
