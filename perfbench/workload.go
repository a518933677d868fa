package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/monitor"
	"github.com/didclab/eta/internal/netem"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/obs/span"
	"github.com/didclab/eta/internal/power"
	"github.com/didclab/eta/internal/proto"
	"github.com/didclab/eta/internal/transfer"
	"github.com/didclab/eta/internal/units"
)

// group is count files of one size.
type group struct {
	n    int
	size units.Bytes
}

// workload is one named benchmark input: a dataset shape, the server's
// shaping, how the transfer is planned and where the bytes land.
type workload struct {
	name string
	why  string
	// files is the dataset; tiny is the self-test's version of it.
	files, tiny []group
	// obs turns the program's registry, event log and span tracer on in
	// every run, with events going to a discarding writer.
	obs bool
	// landed transfers plan with core.MinE, land in a DirSink with
	// SyncOnClose and the receipt journal, and meter energy through
	// monitor.ModelSource. Otherwise the plan comes from plan.
	landed     bool
	perStream  units.Rate
	controlRTT time.Duration
	path       netem.Path
	plan       func(ds dataset.Dataset, nproc int) transfer.Plan
}

// loopback is the path the unshaped workloads assume: the energy model
// charges NIC utilization against it.
var loopback = netem.Path{Bandwidth: 10 * units.Gbps, RTT: 100 * time.Microsecond,
	MaxTCPBuffer: 32 * units.MB, EffStreamBuffer: 4 * units.MB}

var workloads = []workload{
	{
		name:  "bulk",
		why:   "few large files on one channel with nproc streams: the byte path (fill, CRC, writev, client read) sets the speed",
		files: []group{{16, 16 * units.MiB}},
		tiny:  []group{{4, 256 * units.KiB}},
		path:  loopback,
		plan: func(ds dataset.Dataset, nproc int) transfer.Plan {
			return fixedPlan(ds, dataset.Large, 1, nproc, 2)
		},
	},
	{
		name:  "smallfiles",
		why:   "many 16 KiB files on nproc channels with program observability on: per-request control and telemetry cost sets the speed",
		files: []group{{4096, 16 * units.KiB}},
		tiny:  []group{{64, 16 * units.KiB}},
		obs:   true,
		path:  loopback,
		plan: func(ds dataset.Dataset, nproc int) transfer.Plan {
			return fixedPlan(ds, dataset.Small, nproc, 1, 16)
		},
	},
	{
		name:       "mine-landed",
		why:        "MinE over a shaped 80 Mbps/stream, 4 ms path landing fsynced files with the receipt journal: the paper's path end to end",
		files:      []group{{1000, 64 * units.KiB}, {8, 16 * units.MiB}},
		tiny:       []group{{16, 64 * units.KiB}, {2, 1 * units.MiB}},
		landed:     true,
		perStream:  80 * units.Mbps,
		controlRTT: 4 * time.Millisecond,
		path: netem.Path{Bandwidth: 1 * units.Gbps, RTT: 4 * time.Millisecond,
			MaxTCPBuffer: 32 * units.MB, EffStreamBuffer: 4 * units.MB},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want bulk, smallfiles or mine-landed)", name)
}

// fixedPlan sends the whole dataset as one chunk with the given
// parameters.
func fixedPlan(ds dataset.Dataset, class dataset.Class, channels, parallelism, pipelining int) transfer.Plan {
	return transfer.Plan{Chunks: []transfer.ChunkPlan{{
		Chunk: dataset.Chunk{Class: class, Files: ds.Files,
			Pipelining: pipelining, Parallelism: parallelism},
		Channels: channels,
	}}}
}

// makeDataset names the files after the seed, so content (which the
// synthetic store derives from the name) changes with it, and shuffles
// their order.
func makeDataset(groups []group, seed int64) dataset.Dataset {
	var files []dataset.File
	for _, g := range groups {
		for i := 0; i < g.n; i++ {
			files = append(files, dataset.File{
				Name: fmt.Sprintf("s%d-%d-%05d.dat", seed, g.size, i), Size: g.size})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(files), func(i, j int) { files[i], files[j] = files[j], files[i] })
	return dataset.Dataset{Files: files}
}

// energyModel is the paper's Eq. 1–2 fine-grained model with the
// coefficients cmd/energytransfer uses.
var energyModel = power.FineGrained{Coeff: power.Coefficients{
	CPU: power.PaperCPUQuad, Mem: 0.11, Disk: 0.08, NIC: 0.2,
}}

// countingWriter discards what it is given and counts bytes and lines.
type countingWriter struct {
	bytes, lines atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.bytes.Add(int64(len(p)))
	var n int64
	for _, b := range p {
		if b == '\n' {
			n++
		}
	}
	c.lines.Add(n)
	return len(p), nil
}

// side is one in-process server plus the program observability that
// goes with it. The traced run keeps two: transfers alternate between
// the plain side and the probed side so both see the same machine
// state.
type side struct {
	srv    *proto.Server
	reg    *obs.Registry
	log    *obs.Log
	tracer *span.Tracer
	events *countingWriter // probed side only
	store  *storeProbe     // probed side only
}

func newSide(w workload, store *proto.SynthStore, rec *recorder) (*side, error) {
	s := &side{}
	probed := rec != nil
	if w.obs || probed {
		s.reg = obs.NewRegistry()
	}
	if probed {
		// Same names the program registers; finer buckets.
		s.reg.Histogram("server_get_serve_ms", fineBucketsMS...)
		s.reg.Histogram("get_settle_ms", fineBucketsMS...)
	}
	if w.obs {
		var out io.Writer = io.Discard
		if probed {
			s.events = &countingWriter{}
			out = s.events
		}
		s.log = obs.NewBufferedLog(out, 0)
		s.tracer = span.NewTracer(s.reg, s.log)
	}
	var st proto.Store = store
	if probed {
		s.store = &storeProbe{inner: store, rec: rec}
		st = s.store
	}
	srv, err := proto.ListenAndServe("127.0.0.1:0", proto.ServerConfig{
		Store:         st,
		Metrics:       s.reg,
		Events:        s.log,
		Trace:         s.tracer,
		PerStreamRate: w.perStream,
		ControlRTT:    w.controlRTT,
	})
	if err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	s.srv = srv
	return s, nil
}

func (s *side) close() {
	_ = s.srv.Close() // teardown; every transfer on it has finished
	if s.log != nil {
		_ = s.log.Close() // writes to a discarding writer cannot fail
	}
}

// rig is everything a workload needs before its first timed transfer.
type rig struct {
	w      workload
	ds     dataset.Dataset
	nproc  int
	plain  *side
	probed *side // traced run only
	// energy is the executor's energy source (landed workloads only).
	energy *monitor.ModelSource
	// landRoot holds one destination directory per landed transfer;
	// next is the prepared one. journalReg receives the journals'
	// counters in the traced run.
	landRoot   string
	landSeq    int
	next       *dest
	journalReg *obs.Registry
}

// dest is one prepared landing directory and its receipt journal.
type dest struct {
	dir     string
	journal *proto.Journal
}

// newRig builds the dataset, the store, the servers and, for landed
// workloads, the energy source and the first destination. rec is
// non-nil in the traced run.
func newRig(w workload, cfg config, rec *recorder) (*rig, error) {
	groups := w.files
	if cfg.tiny {
		groups = w.tiny
	}
	r := &rig{w: w, ds: makeDataset(groups, cfg.seed), nproc: cfg.nproc}
	store := proto.NewSynthStore(r.ds)
	var err error
	if r.plain, err = newSide(w, store, nil); err != nil {
		return nil, err
	}
	if rec != nil {
		if r.probed, err = newSide(w, store, rec); err != nil {
			r.close()
			return nil, err
		}
	}
	if w.landed {
		server := monitor.LocalServerModel(r.nproc, w.path.Bandwidth, 0)
		r.energy = monitor.NewModelSource(monitor.Monitor{}, server, energyModel)
		if _, err := r.energy.Total(); err != nil { // prime
			r.close()
			return nil, fmt.Errorf("priming energy source: %w", err)
		}
		r.landRoot = filepath.Join(cfg.out, w.name+"-land")
		if err := os.RemoveAll(r.landRoot); err != nil {
			r.close()
			return nil, err
		}
		if rec != nil {
			r.journalReg = obs.NewRegistry()
		}
		if err := r.prepareDest(); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

// prepareDest creates the next empty landing directory and opens its
// journal.
func (r *rig) prepareDest() error {
	r.landSeq++
	dir := filepath.Join(r.landRoot, fmt.Sprint(r.landSeq))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("preparing destination: %w", err)
	}
	j, err := proto.OpenJournal(filepath.Join(dir, proto.JournalFileName), proto.JournalOptions{Metrics: r.journalReg})
	if err != nil {
		return fmt.Errorf("opening journal: %w", err)
	}
	r.next = &dest{dir: dir, journal: j}
	return nil
}

func (r *rig) close() {
	if r.plain != nil {
		r.plain.close()
	}
	if r.probed != nil {
		r.probed.close()
	}
	if r.next != nil {
		_ = r.next.journal.Close() // never written; the tree is removed next
	}
	if r.landRoot != "" {
		_ = os.RemoveAll(r.landRoot) // best-effort cleanup of scratch output
	}
}
