package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// layerMetrics computes the per-layer set from the traced transfers,
// the probed side's counter deltas and the benchmark's spans; plain
// holds the untraced transfers interleaved with them. It also writes
// the spans as a Chrome trace and logs each layer's self time.
func (b *bench) layerMetrics(ctx context.Context, traced, plain []sample, before, after snapshot) (map[string]measure, error) {
	if len(traced) == 0 || len(measured(plain)) == 0 {
		return nil, fmt.Errorf("the traced run needs a traced and an untraced transfer")
	}
	n := len(traced)
	var bytes, files int64
	var wall time.Duration
	var retries, appends, fsyncs int64
	var mallocs, gcs, samples int64
	var closeMS, pausesMS, sampleMS, planMS []float64
	var writeBusy int64
	var joules float64
	for _, s := range traced {
		bytes += s.bytes
		files += s.files
		wall += s.wall
		retries += s.retries
		appends += s.journal[0]
		fsyncs += s.journal[1]
		mallocs += int64(s.mallocs)
		gcs += int64(s.gcs)
		closeMS = append(closeMS, s.closeMS...)
		pausesMS = append(pausesMS, s.pausesMS...)
		sampleMS = append(sampleMS, s.sampleMS...)
		planMS = append(planMS, float64(s.planNS)/1e6)
		writeBusy += s.writeBusyNS
		samples += int64(len(s.joules))
		if k := len(s.joules); k > 1 {
			joules += float64(s.joules[k-1] - s.joules[0])
		}
	}
	if bytes == 0 || files == 0 {
		return nil, fmt.Errorf("traced transfers delivered nothing")
	}
	gb, mb := float64(bytes)/1e9, float64(bytes)/1e6
	per := func(x int64, base float64) float64 { return float64(x) / base }
	delta := func(name string) int64 { return after.reg.Counters[name] - before.reg.Counters[name] }
	hq := func(name string, q float64) float64 {
		return histQuantile(before.reg.Histograms[name], after.reg.Histograms[name], q)
	}
	hn := func(name string) int {
		return int(after.reg.Histograms[name].Count - before.reg.Histograms[name].Count)
	}
	channels, streams, pipeMax := planShape(traced[n-1].plan)
	st := b.probed.store
	reads, readBytes, readBusy := st.calls.Load(), st.bytes.Load(), st.busy.Load()
	batches, blocks := delta("server_writev_batches"), delta("server_writev_blocks")
	hits, misses := delta("server_crc_cache_hits"), delta("server_crc_cache_misses")

	m := map[string]measure{
		"core.plan_ms":             {median(planMS), n},
		"core.channels":            {float64(channels), 1},
		"core.streams":             {float64(streams), 1},
		"core.pipelining_max":      {float64(pipeMax), 1},
		"executor.retries":         {float64(retries), n},
		"store.read_calls_per_GB":  {per(reads, gb), int(reads)},
		"store.read_busy_s_per_GB": {float64(readBusy) / 1e9 / gb, int(reads)},
		"server.get_serve_ms_p50":  {hq("server_get_serve_ms", 0.5), hn("server_get_serve_ms")},
		"server.get_serve_ms_p99":  {hq("server_get_serve_ms", 0.99), hn("server_get_serve_ms")},
		"client.get_settle_ms_p50": {hq("get_settle_ms", 0.5), hn("get_settle_ms")},
		"client.get_settle_ms_p99": {hq("get_settle_ms", 0.99), hn("get_settle_ms")},
		"client.gets_failed":       {float64(delta("gets_failed")), n},
		"sink.write_busy_s_per_GB": {float64(writeBusy) / 1e9 / gb, n},
		"sink.close_ms_p50":        {quantile(closeMS, 0.5), len(closeMS)},
		"sink.close_ms_p99":        {quantile(closeMS, 0.99), len(closeMS)},
		"journal.appends_per_MB":   {per(appends, mb), n},
		"journal.fsyncs_per_s":     {per(fsyncs, wall.Seconds()), n},
		"monitor.samples":          {per(samples, float64(n)), n},
		"monitor.sample_ms_p50":    {median(sampleMS), len(sampleMS)},
		"monitor.model_J_per_GB":   {joules / gb, n},
		"obs.events_per_file":      {per(after.cw[1]-before.cw[1], float64(files)), n},
		"obs.event_bytes_per_MB":   {per(after.cw[0]-before.cw[0], mb), n},
		"obs.spans_per_file":       {per(delta("spans_started"), float64(files)), n},
		"runtime.allocs_per_MB":    {per(mallocs, mb), n},
		"runtime.gc_cycles_per_GB": {per(gcs, gb), n},
		"runtime.gc_pause_ms_p99":  {quantile(pausesMS, 0.99), len(pausesMS)},
	}
	if readBusy > 0 {
		m["store.read_MBps"] = measure{float64(readBytes) / 1e6 / (float64(readBusy) / 1e9), int(reads)}
	}
	if blocks > 0 {
		m["server.writes_per_block"] = measure{per(batches, float64(blocks)), int(blocks)}
	}
	if hits+misses > 0 {
		m["server.crc_hit_pct"] = measure{100 * per(hits, float64(hits+misses)), int(hits + misses)}
	}

	spans := b.rec.snapshot()
	m["transfer.idle_pct"] = measure{idlePct(spans), n}
	// File intervals come from the untraced transfers: they are what a
	// user waiting on files sees.
	var gaps []float64
	for _, s := range measured(plain) {
		gaps = append(gaps, s.gapsMS...)
	}
	m["transfer.file_interval_ms_p50"] = measure{quantile(gaps, 0.5), len(gaps)}
	m["transfer.file_interval_ms_p99"] = measure{quantile(gaps, 0.99), len(gaps)}
	plainMBps := median(each(measured(plain), sample.goodputMBps))
	tracedMBps := median(each(measured(traced), sample.goodputMBps))
	m["trace.overhead_pct"] = measure{100 * (plainMBps - tracedMBps) / plainMBps, len(plain) + n}

	fill, crc := fillCeiling(time.Second/2), crcCeiling(time.Second/2)
	tcp, err := tcpCeiling(ctx, b.nproc, time.Second)
	if err != nil {
		return nil, fmt.Errorf("tcp ceiling: %w", err)
	}
	m["ceiling.fill_MBps"] = measure{fill, 1}
	m["ceiling.crc_MBps"] = measure{crc, 1}
	m["ceiling.tcp_MBps"] = measure{tcp, 1}
	m["ceiling.bulk_pct_of_tcp"] = measure{100 * plainMBps / tcp, len(plain)}

	if err := b.writeTrace(spans); err != nil {
		return nil, err
	}
	return m, nil
}

// idlePct is the share of traced transfer time with neither a store
// read nor a sink write in flight.
func idlePct(spans []spanRec) float64 {
	busy := make(map[uint64][]interval)
	var roots []spanRec
	for _, s := range spans {
		switch s.name {
		case spanRead, spanWrite:
			busy[s.transferID] = append(busy[s.transferID], interval{s.start, s.end})
		case spanTransfer:
			roots = append(roots, s)
		}
	}
	var total, idle int64
	for _, r := range roots {
		total += r.end - r.start
		idle += r.end - r.start - covered(busy[r.id], r.start, r.end)
	}
	if total == 0 {
		return 0
	}
	return 100 * float64(idle) / float64(total)
}

// writeTrace writes the spans as Chrome trace-event JSON under the
// output directory and logs each layer's self time.
func (b *bench) writeTrace(spans []spanRec) error {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(b.log, "self time by layer over %d spans:\n", len(spans))
	for _, name := range names {
		fmt.Fprintf(b.log, "  %-16s %10.4f s\n", name, self[name])
	}
	path := filepath.Join(b.cfg.out, "trace-"+b.w.name+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(b.log, "spans: %s\n", path)
	return nil
}
