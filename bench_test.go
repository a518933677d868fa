package eta_test

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation. Each benchmark regenerates its figure's data on the
// simulated testbeds and reports the headline quantities as custom
// metrics, so `go test -bench=. -benchmem` reprints the evaluation:
//
//	Fig. 2  — XSEDE concurrency sweep        (BenchmarkFig2XSEDE)
//	Fig. 3  — FutureGrid concurrency sweep   (BenchmarkFig3FutureGrid)
//	Fig. 4  — DIDCLAB LAN concurrency sweep  (BenchmarkFig4DIDCLAB)
//	Fig. 5  — SLAEE on XSEDE                 (BenchmarkFig5SLAXSEDE)
//	Fig. 6  — SLAEE on FutureGrid            (BenchmarkFig6SLAFutureGrid)
//	Fig. 7  — SLAEE on DIDCLAB               (BenchmarkFig7SLADIDCLAB)
//	Fig. 8  — device rate-power relations    (BenchmarkFig8NetPowerModels)
//	Fig. 10 — end-system vs network energy   (BenchmarkFig10EnergySplit)
//	§2.2    — power-model validation         (BenchmarkTable2ModelError)
//
// plus micro-benchmarks of the load-bearing primitives.

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"github.com/didclab/eta/internal/core"
	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/experiments"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/obs/span"
	"github.com/didclab/eta/internal/power"
	"github.com/didclab/eta/internal/proto"
	"github.com/didclab/eta/internal/sched"
	"github.com/didclab/eta/internal/testbed"
	"github.com/didclab/eta/internal/transfer"
	"github.com/didclab/eta/internal/units"
)

func benchSweep(b *testing.B, tb testbed.Testbed) {
	b.Helper()
	ctx := context.Background()
	var sweep *experiments.Sweep
	for i := 0; i < b.N; i++ {
		var err error
		sweep, err = experiments.RunSweep(ctx, tb, experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	top := sweep.Reports[core.NameProMC][12]
	mine := sweep.Reports[core.NameMinE][12]
	htee := sweep.Reports[core.NameHTEE][12]
	b.ReportMetric(top.Throughput.Mbit(), "ProMC@12_Mbps")
	b.ReportMetric(float64(mine.EndSystemEnergy), "MinE@12_J")
	b.ReportMetric(sweep.NormalizedEfficiency(htee), "HTEE_eff_of_BF")
	b.ReportMetric(float64(sweep.BF.Best), "BF_best_cc")
}

func BenchmarkFig2XSEDE(b *testing.B)      { benchSweep(b, testbed.XSEDE()) }
func BenchmarkFig3FutureGrid(b *testing.B) { benchSweep(b, testbed.FutureGrid()) }
func BenchmarkFig4DIDCLAB(b *testing.B)    { benchSweep(b, testbed.DIDCLAB()) }

// BenchmarkSweepXSEDESerial is the one-worker baseline for the
// parallel experiment engine: compare against BenchmarkFig2XSEDE
// (which runs the same sweep at GOMAXPROCS workers) to measure the
// fan-out speedup on this machine.
func BenchmarkSweepXSEDESerial(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSweepSerial(ctx, testbed.XSEDE(), experiments.DefaultSeed); err != nil {
			b.Fatal(err)
		}
	}
}

func benchSLA(b *testing.B, tb testbed.Testbed) {
	b.Helper()
	ctx := context.Background()
	var sweep *experiments.SLASweep
	for i := 0; i < b.N; i++ {
		var err error
		sweep, err = experiments.RunSLA(ctx, tb, experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	var meanAbsDev float64
	for _, t := range sweep.Targets {
		meanAbsDev += math.Abs(sweep.Results[t].Deviation())
	}
	meanAbsDev /= float64(len(sweep.Targets))
	b.ReportMetric(sweep.MaxThroughput.Mbit(), "max_Mbps")
	b.ReportMetric(meanAbsDev, "mean_abs_deviation_pct")
	b.ReportMetric(sweep.EnergySaving(0.50), "saving_at_50pct_target_pct")
}

func BenchmarkFig5SLAXSEDE(b *testing.B)      { benchSLA(b, testbed.XSEDE()) }
func BenchmarkFig6SLAFutureGrid(b *testing.B) { benchSLA(b, testbed.FutureGrid()) }
func BenchmarkFig7SLADIDCLAB(b *testing.B)    { benchSLA(b, testbed.DIDCLAB()) }

func BenchmarkFig8NetPowerModels(b *testing.B) {
	var points []experiments.RatePowerPoint
	for i := 0; i < b.N; i++ {
		points = experiments.RatePowerCurves(1000)
	}
	mid := points[len(points)/2]
	b.ReportMetric(mid.NonLinear, "nonlinear_at_50pct")
	b.ReportMetric(mid.Linear, "linear_at_50pct")
}

func BenchmarkFig10EnergySplit(b *testing.B) {
	ctx := context.Background()
	var splits []experiments.EnergySplit
	for i := 0; i < b.N; i++ {
		var err error
		splits, err = experiments.RunEnergySplits(ctx, testbed.All(), experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range splits {
		b.ReportMetric(s.NetworkShare, s.Testbed+"_net_pct")
	}
}

func BenchmarkTable2ModelError(b *testing.B) {
	var results []power.ValidationResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = power.Validate(power.DefaultGroundTruth(), 200, experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	var worstFG, worstCO float64
	for _, r := range results {
		if r.FineGrainedError > worstFG {
			worstFG = r.FineGrainedError
		}
		if r.CPUOnlyError > worstCO {
			worstCO = r.CPUOnlyError
		}
	}
	b.ReportMetric(worstFG, "worst_finegrained_pct")
	b.ReportMetric(worstCO, "worst_cpuonly_pct")
}

// --- micro-benchmarks of the primitives the harness leans on ---

func BenchmarkSimProMCXSEDE(b *testing.B) {
	tb := testbed.XSEDE()
	ds := tb.Dataset(experiments.DefaultSeed)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ProMC(ctx, transfer.NewSim(tb), ds, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionAndMerge(b *testing.B) {
	ds := testbed.XSEDE().Dataset(experiments.DefaultSeed)
	bdp := testbed.XSEDE().Path.BDP()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dataset.PartitionAndMerge(ds, bdp)
	}
}

func BenchmarkFitFineGrained(b *testing.B) {
	calib := power.CalibrationSweep(power.DefaultGroundTruth(), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := power.BuildFineGrained(calib); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSynthFill(b *testing.B) {
	buf := make([]byte, 1<<20)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		proto.FillSynth("bench.dat", int64(i)<<20, buf)
	}
}

func BenchmarkProtoLoopback(b *testing.B) {
	// Real-TCP end-to-end throughput on loopback: 64 MB per iteration
	// across 4 striped streams, re-dialing the channel every iteration
	// (connection setup included).
	ds := dataset.NewGenerator(1).Uniform(16, 4*units.MB)
	srv, err := proto.ListenAndServe("127.0.0.1:0", proto.ServerConfig{Store: proto.NewSynthStore(ds)})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	b.SetBytes(int64(ds.TotalSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client := &proto.Client{Addr: srv.Addr()}
		ch, err := client.OpenChannel(4)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ch.Fetch(ds.Files, 4, discardSink{}); err != nil {
			b.Fatal(err)
		}
		ch.Close()
	}
}

// BenchmarkProtoLoopbackSteady reuses one channel across iterations —
// the steady state the block-buffer pool targets. Run with -benchmem:
// allocs/op here is the per-64MB-transfer allocation cost with dialing
// excluded, so the zero-alloc data path is directly visible.
func BenchmarkProtoLoopbackSteady(b *testing.B) {
	ds := dataset.NewGenerator(1).Uniform(16, 4*units.MB)
	srv, err := proto.ListenAndServe("127.0.0.1:0", proto.ServerConfig{Store: proto.NewSynthStore(ds)})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client := &proto.Client{Addr: srv.Addr()}
	ch, err := client.OpenChannel(4)
	if err != nil {
		b.Fatal(err)
	}
	defer ch.Close()
	b.SetBytes(int64(ds.TotalSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ch.Fetch(ds.Files, 4, discardSink{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoopbackTraced is BenchmarkProtoLoopbackSteady with span
// tracing on for both ends (events discarded, metrics live): the
// steady-state cost of the tracer on the hot path. Compare its MB/s
// against the untraced steady benchmark to see the instrumentation
// overhead; the bench gate holds it to the same tolerance as the rest
// of the data plane.
func BenchmarkLoopbackTraced(b *testing.B) {
	ds := dataset.NewGenerator(1).Uniform(16, 4*units.MB)
	reg := obs.NewRegistry()
	events := obs.NewLog(nil)
	tracer := span.NewTracer(reg, events)
	srv, err := proto.ListenAndServe("127.0.0.1:0", proto.ServerConfig{
		Store:  proto.NewSynthStore(ds),
		Events: events,
		Trace:  tracer,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client := &proto.Client{Addr: srv.Addr(), Trace: tracer}
	ch, err := client.OpenChannel(4)
	if err != nil {
		b.Fatal(err)
	}
	defer ch.Close()
	b.SetBytes(int64(ds.TotalSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ch.Fetch(ds.Files, 4, discardSink{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := int64(b.N); n > 0 {
		b.ReportMetric(float64(reg.Counter("spans_started").Value())/float64(n), "spans_per_op")
	}
}

// BenchmarkLoopbackVectored measures the vectored data plane in its
// steady state: one reused channel, 64 MB per iteration across 4
// striped streams, with the server's CRC sidecar warm after the first
// iteration. Beyond throughput it reports writes_per_block — vectored
// writes issued per block served, which is 1.0 because every block is
// exactly one header+payload writev — and crc_hit_pct, the share of
// blocks whose checksum came from the sidecar instead of a hash pass.
func BenchmarkLoopbackVectored(b *testing.B) {
	ds := dataset.NewGenerator(1).Uniform(16, 4*units.MB)
	reg := obs.NewRegistry()
	srv, err := proto.ListenAndServe("127.0.0.1:0", proto.ServerConfig{
		Store:   proto.NewSynthStore(ds),
		Metrics: reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client := &proto.Client{Addr: srv.Addr()}
	ch, err := client.OpenChannel(4)
	if err != nil {
		b.Fatal(err)
	}
	defer ch.Close()
	batches := reg.Counter("server_writev_batches")
	blocks := reg.Counter("server_writev_blocks")
	hits := reg.Counter("server_crc_cache_hits")
	// Warm the sidecar (first serve hashes every block) outside the
	// timed region.
	if _, err := ch.Fetch(ds.Files, 4, discardSink{}); err != nil {
		b.Fatal(err)
	}
	batches0, blocks0, hits0 := batches.Value(), blocks.Value(), hits.Value()
	b.SetBytes(int64(ds.TotalSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ch.Fetch(ds.Files, 4, discardSink{}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	servedBlocks := blocks.Value() - blocks0
	if servedBlocks > 0 {
		b.ReportMetric(float64(batches.Value()-batches0)/float64(servedBlocks), "writes_per_block")
		b.ReportMetric(100*float64(hits.Value()-hits0)/float64(servedBlocks), "crc_hit_pct")
	}
}

// BenchmarkLoopbackMultiEndpoint measures the multi-endpoint data
// plane: two loopback replicas behind an equal-weight EndpointPool, one
// steady channel per replica, 64 MB per iteration split across them.
// This is the 2-endpoint datapoint the bench gate records so placement
// overhead (pool picks, per-endpoint instruments) stays visible.
func BenchmarkLoopbackMultiEndpoint(b *testing.B) {
	ds := dataset.NewGenerator(1).Uniform(16, 4*units.MB)
	srvs := make([]*proto.Server, 2)
	eps := make([]proto.Endpoint, 2)
	for i := range srvs {
		srv, err := proto.ListenAndServe("127.0.0.1:0", proto.ServerConfig{Store: proto.NewSynthStore(ds)})
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		srvs[i] = srv
		eps[i] = proto.Endpoint{Addr: srv.Addr(), Weight: 1}
	}
	pool, err := proto.NewEndpointPool(eps...)
	if err != nil {
		b.Fatal(err)
	}
	client := &proto.Client{Endpoints: pool}
	chans := make([]*proto.Channel, 2)
	for i := range chans {
		ch, err := client.OpenChannel(2)
		if err != nil {
			b.Fatal(err)
		}
		defer ch.Close()
		chans[i] = ch
	}
	halves := [][]dataset.File{ds.Files[:len(ds.Files)/2], ds.Files[len(ds.Files)/2:]}
	ctx := context.Background()
	b.SetBytes(int64(ds.TotalSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Map(ctx, 2, 2, func(_ context.Context, k int) (proto.FetchResult, error) {
			return chans[k].Fetch(halves[k], 4, discardSink{})
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoopbackJournal measures the durability tax: a journal-enabled
// transfer to a real DirSink (fsync-on-close, receipt journal with the
// default 25ms group commit) versus the discard-path benchmarks above.
// Each iteration delivers 16 MB into a fresh destination and reports
// appends_per_mb — journaled receipts per delivered megabyte — so a
// change that starts journaling per-write instead of per-block shows up
// even when tmpfs hides the fsync cost.
func BenchmarkLoopbackJournal(b *testing.B) {
	ds := dataset.NewGenerator(1).Uniform(16, 1*units.MB)
	srv, err := proto.ListenAndServe("127.0.0.1:0", proto.ServerConfig{Store: proto.NewSynthStore(ds)})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	reg := obs.NewRegistry()
	b.SetBytes(int64(ds.TotalSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dest := b.TempDir()
		b.StartTimer()
		jr, err := proto.OpenJournal(filepath.Join(dest, proto.JournalFileName), proto.JournalOptions{Metrics: reg})
		if err != nil {
			b.Fatal(err)
		}
		sink := proto.NewDirSink(dest)
		sink.SyncOnClose = true
		client := &proto.Client{Addr: srv.Addr(), Journal: jr}
		ch, err := client.OpenChannel(4)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ch.Fetch(ds.Files, 4, sink); err != nil {
			b.Fatal(err)
		}
		ch.Close()
		if err := jr.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if appends := reg.Counter("journal_appends").Value(); b.N > 0 {
		perMB := float64(appends) / float64(b.N) / (float64(ds.TotalSize()) / float64(units.MB))
		b.ReportMetric(perMB, "appends_per_mb")
	}
}

// discardSink drops payload as fast as possible for throughput benches.
type discardSink struct{}

func (discardSink) WriteAt(_ string, p []byte, _ int64) (int, error) { return len(p), nil }
func (discardSink) Close(string) error                               { return nil }

func BenchmarkAblationsXSEDE(b *testing.B) {
	ctx := context.Background()
	var abl []experiments.Ablation
	for i := 0; i < b.N; i++ {
		var err error
		abl, err = experiments.RunAblations(ctx, testbed.XSEDE(), experiments.DefaultSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, a := range abl {
		b.ReportMetric(a.EnergyDelta(), a.Name+"_energy_pct")
	}
}
