package main

import "strings"

// metricDef is one metric the benchmark reports.
type metricDef struct {
	Name   string
	Better string // "lower" or "higher"
	// Bound is how much worse the median may get before a change counts
	// as a regression: a share of the baseline median, or, with Abs, an
	// absolute difference. Per-layer metrics have none.
	Bound float64
	Abs   bool
}

func (d metricDef) unit() string { return unitOf(d.Name) }

// endToEnd is what a user of each workload sees, measured with tracing
// off; every workload reports all of them. An item is a DNS or
// connection record on report-*, a lookup on scan-*. BENCHMARK.json's
// end_to_end lists the same metrics, units, directions and bounds.
// The time bounds are 25% because a bound must hold the run-to-run
// spread, which reached 24% on the shared 2-vCPU reference host; the
// heap bound is 10%. README.md records the spreads.
var endToEnd = []metricDef{
	{Name: "setup_s", Better: "lower", Bound: 0.25},
	{Name: "items_per_s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_item", Better: "lower", Bound: 0.25},
	{Name: "peak_heap_mb", Better: "lower", Bound: 0.10},
}

// scanEndToEnd are the per-lookup outcomes of the scan workloads. They
// are end-to-end metrics of those workloads only, so they live in the
// benchmark's own records and -compare rather than in BENCHMARK.json,
// whose metrics every workload must report. Simulated latencies are
// virtual and checked for identity instead. Where a run's latency
// quartiles are wider than 10%, -compare calls the row unresolved.
var scanEndToEnd = []metricDef{
	{Name: "lookup_p50_ms", Better: "lower", Bound: 0.10},
	{Name: "lookup_p99_ms", Better: "lower", Bound: 0.10},
	{Name: "error_frac", Better: "lower", Bound: 0.001, Abs: true},
}

// perLayer are the traced run's layer metrics that BENCHMARK.json lists:
// the stage split every workload has (README.md maps each stage to its
// module per workload), the runtime costs, and the counters and ratios
// of the layers an optimization is most likely to move. Each workload
// reports every one; a ratio or count of a layer off the workload's path
// reads 0. The records carry every layer metric of README.md's table.
var perLayer = []metricDef{
	{Name: "stage.input_s", Better: "lower"},
	{Name: "stage.engine_s", Better: "lower"},
	{Name: "stage.output_s", Better: "lower"},
	{Name: "stage.output_bytes", Better: "lower"},
	{Name: "runtime.allocs_per_item", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Better: "lower"},
	{Name: "core.phase_coverage", Better: "higher"},
	{Name: "core.classify_utilization", Better: "higher"},
	{Name: "bulk.coalesced_frac", Better: "higher"},
	{Name: "resolver.cache_hit_frac", Better: "higher"},
	{Name: "pool.attempts_per_query", Better: "lower"},
	{Name: "pool.timeouts", Better: "lower"},
	{Name: "pool.hedges", Better: "lower"},
	{Name: "server.shed", Better: "lower"},
	{Name: "bench.warmup_s", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Better: "lower"},
	{Name: "host.steal_frac", Better: "lower"},
}

// unitOf derives a metric's unit from its name's suffix, so every
// metric a workload emits carries one without a second table.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_us_per_item"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MiB"
	case strings.HasSuffix(name, "bytes"):
		return "bytes"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_utilization"), strings.HasSuffix(name, "_coverage"):
		return "fraction"
	}
	return "count"
}
