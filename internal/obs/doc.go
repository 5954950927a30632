// Package obs is the observability layer threaded through every runtime
// layer of the repo: the fleet federation, the autopilot control loop, the
// memplane data plane, the chaos injector and the gateway serving stack.
//
// It has two halves:
//
//   - A metrics registry ([Registry]) of atomic counters, gauges and
//     fixed log-bucket latency histograms. Every constructor and method is
//     nil-safe: a nil *Registry hands out nil metrics, and operations on nil
//     metrics are no-ops that perform zero allocations, so instrumented hot
//     paths cost nothing when observability is disabled. When enabled, the
//     hot-path cost is one atomic add per counter touch and two per
//     histogram observation — never a lock, never an allocation.
//
//   - A deterministic trace ring ([Trace]) of structured span events. Events
//     are stamped with an injectable clock — simulation time or a fake
//     stepping clock, never bare wall-time — so an NDJSON export
//     ([Trace.WriteNDJSON]) is byte-stable across runs with the same seed
//     and clock, and therefore golden-testable. The ring is fixed-capacity:
//     under sustained load the oldest events are overwritten and counted in
//     the dropped tally rather than growing memory without bound.
//
// The two halves are bundled by [Obs]; a nil *Obs means "observability off"
// everywhere. One sharp edge is deliberate: emitting a trace event with
// fields builds a variadic []Field slice at the call site, which the
// compiler heap-allocates regardless of whether the receiver is nil (escape
// analysis is static). Hot loops must therefore guard emission sites with an
// explicit nil check —
//
//	if o != nil {
//		o.Trace.EmitAt(now, "autopilot", "tick", obs.F("active", n))
//	}
//
// — which is the pattern used by the fleet, autopilot and memplane
// instrumentation so the allocation budgets pinned by the epoch-loop and
// online-loop tests (TestEpochLoopAllocationBudget,
// TestOnlineLoopAllocationBudget) hold with observability disabled.
//
// Surfacing: the gateway serves the registry as Prometheus text exposition
// on GET /metrics ([Registry.WritePrometheus]), session reports embed a
// [Snapshot], and the fleetsim, onlinesim and membench CLIs dump a text
// snapshot plus the NDJSON trace under their -obs flag.
package obs
