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
//     (EncodeCSV writes Huffman-only .csv.gz on request, which inflates
//     faster than LZ77-coded gzip at about its size, and Import sniffs the
//     magic bytes and inflates any gzip stream with a table-driven inflater
//     of its own that accepts and rejects exactly what compress/gzip does),
//     since month-scale conversions balloon on disk as flat CSV;
//   - the causal event order (ArrivalOrder, DepartureOrder) and a streaming
//     feed over it (Stream) that yields arrivals and departures one event at
//     a time; the online control plane (internal/autopilot) walks the same
//     order through its replay index, so it never sees the future or the
//     materialized population;
//   - a scenario engine of seeded workload families (Family, GenerateFamily):
//     diurnal sinusoid, flash-crowd bursts, serverless short tasks,
//     gang-scheduled ML batches and heavy-tail Pareto sizes, each with a
//     fixed shape that only the envelope (fleet, horizon, tasks, seed)
//     scales, composable via Compose/Overlay into mixed workloads with
//     disjoint ID namespaces;
//   - a record-at-a-time importer (Import; Spec.Open reads a file) for .csv
//     and .csv.gz traces bigger than RAM in the codec's layout, with
//     row-numbered rejection of malformed tasks and duplicate IDs, and a
//     fleet size derived from a walk of the event order when none is given.
package trace
