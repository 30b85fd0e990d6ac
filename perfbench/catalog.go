package main

// metric is one benchmark metric: its unit, which direction is
// better, and — for the per-layer metrics — which end-to-end metric
// it should move on which workload. BENCHMARK.json lists the same
// names, units and directions (the smoke test keeps them in step) and
// carries the end-to-end bounds.
type metric struct {
	Name, Unit, Better string
	Moves, On          string
}

// endToEnd metrics are measured with tracing off.
var endToEnd = []metric{
	{Name: "wall_s", Unit: "s", Better: "lower"},
	{Name: "minst_per_s", Unit: "Minst/s", Better: "higher"},
	{Name: "cpu_s", Unit: "s", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower"},
}

// perLayer metrics come from the traced run.
var perLayer = []metric{
	{"ir.gen_ms", "ms", "lower", "setup_s", "all"},
	{"cc.compile_ms", "ms", "lower", "wall_s (<=1%)", "all"},
	{"cc.text_bytes", "count", "lower", "none: exact unless codegen changes", "all"},
	{"simeng.load_ms", "ms", "lower", "wall_s, peak_rss_mb", "all"},
	{"simeng.a64.minst_per_s", "Minst/s", "higher", "wall_s, minst_per_s", "sim-pathlen (most), repro-small"},
	{"simeng.rv64.minst_per_s", "Minst/s", "higher", "wall_s, minst_per_s", "sim-pathlen (most), repro-small"},
	{"simeng.retired", "count", "lower", "none: exact", "all"},
	{"simeng.events_per_stepn", "count", "higher", "none: ~4096 while the batched path holds", "all"},
	{"fusion.ns_per_event", "ns", "lower", "wall_s", "fused-cp"},
	{"fusion.out_per_in", "ratio", "lower", "wall_s", "fused-cp"},
	{"core.pathlen.ns_per_event", "ns", "lower", "wall_s", "sim-pathlen"},
	{"core.mix.ns_per_event", "ns", "lower", "wall_s", "sim-pathlen"},
	{"core.critpath.ns_per_event", "ns", "lower", "wall_s", "fused-cp (most), repro-small"},
	{"core.scaledcp.ns_per_event", "ns", "lower", "wall_s", "fused-cp (most), repro-small"},
	{"core.critpath.dense_words", "count", "lower", "peak_rss_mb", "fused-cp, repro-small"},
	{"core.critpath.map_entries", "count", "lower", "peak_rss_mb", "fused-cp, repro-small"},
	{"core.windowcp.ns_per_event", "ns", "lower", "wall_s, cpu_s", "repro-small"},
	{"sched.busy_frac", "ratio", "higher", "wall_s, cpu_s", "repro-small"},
	{"sched.blocked_s", "s", "lower", "wall_s, cpu_s", "repro-small"},
	{"sched.util_spread", "ratio", "lower", "wall_s, cpu_s", "repro-small"},
	{"report.render_ms", "ms", "lower", "wall_s (<=1%)", "all"},
	{"ir.self_share", "ratio", "lower", "none: shows which layer dominates", "all"},
	{"cc.self_share", "ratio", "lower", "none: shows which layer dominates", "all"},
	{"simeng.self_share", "ratio", "lower", "none: shows which layer dominates", "all"},
	{"fusion.self_share", "ratio", "lower", "none: shows which layer dominates", "all"},
	{"core.pathlen.self_share", "ratio", "lower", "none: shows which layer dominates", "all"},
	{"core.critpath.self_share", "ratio", "lower", "none: shows which layer dominates", "all"},
	{"core.scaledcp.self_share", "ratio", "lower", "none: shows which layer dominates", "all"},
	{"core.windowcp.self_share", "ratio", "lower", "none: shows which layer dominates", "all"},
	{"core.mix.self_share", "ratio", "lower", "none: shows which layer dominates", "all"},
	{"report.self_share", "ratio", "lower", "none: shows which layer dominates", "all"},
	{"trace.unattributed_share", "ratio", "lower", "none: shows which layer dominates", "all"},
	{"trace.overhead_frac", "ratio", "lower", "none: cost of tracing", "all"},
}
