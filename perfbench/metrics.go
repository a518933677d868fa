package main

// metric names one reported figure and its unit. The two tables below
// are the benchmark's whole vocabulary: a run prints exactly one of
// them, and the self-test checks both against BENCHMARK.json.
type metric struct {
	name, unit string
}

// endToEnd is what a user waiting on transfers sees; the untraced run
// prints these.
var endToEnd = []metric{
	{"goodput_MBps", "MB/s"},
	{"cpu_s_per_GB", "s/GB"},
	{"energy_J_per_GB", "J/GB"},
	{"setup_s", "s"},
	{"peak_rss_MB", "MB"},
	{"ok_pct", "%"},
}

// perLayer is measured around the calls into each layer and read from
// the program's own counters; the traced run prints these.
var perLayer = []metric{
	{"core.plan_ms", "ms"},
	{"core.channels", "count"},
	{"core.streams", "count"},
	{"core.pipelining_max", "count"},
	{"executor.retries", "count"},
	{"store.read_calls_per_GB", "1/GB"},
	{"store.read_busy_s_per_GB", "s/GB"},
	{"store.read_MBps", "MB/s"},
	{"server.writes_per_block", "ratio"},
	{"server.crc_hit_pct", "%"},
	{"server.get_serve_ms_p50", "ms"},
	{"server.get_serve_ms_p99", "ms"},
	{"client.get_settle_ms_p50", "ms"},
	{"client.get_settle_ms_p99", "ms"},
	{"client.gets_failed", "count"},
	{"sink.write_busy_s_per_GB", "s/GB"},
	{"sink.close_ms_p50", "ms"},
	{"sink.close_ms_p99", "ms"},
	{"journal.appends_per_MB", "1/MB"},
	{"journal.fsyncs_per_s", "1/s"},
	{"monitor.samples", "count"},
	{"monitor.sample_ms_p50", "ms"},
	{"monitor.model_J_per_GB", "J/GB"},
	{"obs.events_per_file", "1/file"},
	{"obs.event_bytes_per_MB", "B/MB"},
	{"obs.spans_per_file", "1/file"},
	{"runtime.allocs_per_MB", "1/MB"},
	{"runtime.gc_cycles_per_GB", "1/GB"},
	{"runtime.gc_pause_ms_p99", "ms"},
	{"transfer.idle_pct", "%"},
	{"transfer.file_interval_ms_p50", "ms"},
	{"transfer.file_interval_ms_p99", "ms"},
	{"trace.overhead_pct", "%"},
	{"ceiling.fill_MBps", "MB/s"},
	{"ceiling.crc_MBps", "MB/s"},
	{"ceiling.tcp_MBps", "MB/s"},
	{"ceiling.bulk_pct_of_tcp", "%"},
}
