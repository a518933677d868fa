package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/didclab/eta/internal/core"
	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/endsys"
	"github.com/didclab/eta/internal/monitor"
	"github.com/didclab/eta/internal/obs"
	"github.com/didclab/eta/internal/proto"
	"github.com/didclab/eta/internal/transfer"
	"github.com/didclab/eta/internal/units"
)

// bench runs transfers on a rig and keeps the tally.
type bench struct {
	cfg config
	*rig
	rec *recorder
	log io.Writer

	attempted, failed int
	// landed holds the trees of landed transfers still to be checked.
	landed []landedTree
}

// landedTree is one landed transfer's destination.
type landedTree struct {
	dir      string
	transfer int
}

func (b *bench) fail(transfer int, problem error) {
	b.failed++
	fmt.Fprintf(b.log, "transfer %d failed: %v\n", transfer, problem)
}

// checkLandedTrees re-reads every landed tree; a tree that does not
// check out fails its transfer.
func (b *bench) checkLandedTrees() {
	for _, t := range b.landed {
		if err := checkLanded(t.dir, b.ds); err != nil {
			b.fail(t.transfer, err)
		}
	}
	b.landed = nil
}

// sample is one timed transfer.
type sample struct {
	wall, cpu   time.Duration
	bytes       int64
	files       int64
	retries     int64
	plan        transfer.Plan
	planNS      int64     // from transfer start to the executor call
	gapsMS      []float64 // between successive file completions
	closeMS     []float64 // traced only
	writeBusyNS int64     // traced only
	joules      []units.Joules
	sampleMS    []float64
	mallocs     uint64
	gcs         uint32
	pausesMS    []float64
	journal     [2]int64 // appends, fsyncs
	peakMB      float64  // peak resident set during the transfer
}

func (s sample) goodputMBps() float64 { return float64(s.bytes) / s.wall.Seconds() / 1e6 }

func (r *rig) sides() []*side {
	if r.probed != nil {
		return []*side{r.plain, r.probed}
	}
	return []*side{r.plain}
}

// transfer runs one closed-loop transfer on side s and checks it. traced
// turns the benchmark's spans and per-transfer runtime readings on;
// verified routes bulk and smallfiles payload through proto.VerifySink
// instead of discarding it (landed transfers are always verified).
func (b *bench) transfer(ctx context.Context, s *side, traced, verified bool) sample {
	w, ds := b.w, b.ds
	var inner proto.Sink = discardSink{}
	var vs *proto.VerifySink
	var d *dest
	switch {
	case w.landed:
		d = b.next
		dir := proto.NewDirSink(d.dir)
		dir.SyncOnClose = true
		inner = dir
	case verified:
		vs = proto.NewVerifySink()
		inner = vs
	}
	flip := b.cfg.corrupt && (verified || w.landed)
	sp, sink := newSinkProbe(inner, b.rec, ds.Count(), flip)
	client := &proto.Client{Addr: s.srv.Addr(), Counters: &proto.Counters{}}
	if d != nil {
		client.Journal = d.journal
	}
	exec := &proto.Executor{
		Client: client,
		Sink:   sink,
		Environment: transfer.Environment{Path: w.path, MaxChannels: b.nproc,
			ServersPerSite: 1},
		MaxRetries: 3,
		Label:      w.name,
		Metrics:    s.reg,
		Events:     s.log,
		Trace:      s.tracer,
	}
	var ep *energyProbe
	if b.energy != nil {
		ep = &energyProbe{inner: b.energy, rec: b.rec}
		exec.Energy = ep
	}
	xp := &execProbe{Executor: exec, rec: b.rec}
	var plan transfer.Plan
	if !w.landed {
		plan = w.plan(ds, b.nproc)
	}

	var smp sample
	var m0, m1 runtime.MemStats
	var j0 [2]int64
	var root uint64
	if traced {
		root = b.rec.newID()
		b.rec.transfer.Store(root)
		b.rec.parent.Store(root)
		j0 = journalCounts(b.journalReg)
		runtime.ReadMemStats(&m0)
		b.rec.on.Store(true)
	}
	resetPeakRSS()
	cpu0, t0 := cpuTime(), now()
	var rep transfer.Report
	var err error
	if w.landed {
		rep, err = core.MinE(ctx, xp, ds, b.nproc)
	} else {
		rep, err = xp.Run(ctx, plan)
	}
	t1, cpu1 := now(), cpuTime()
	smp.peakMB = peakRSSMB()
	if traced {
		b.rec.on.Store(false)
		runtime.ReadMemStats(&m1)
		b.rec.add(spanRec{name: spanTransfer, id: root, transferID: root, start: t0, end: t1})
		if xp.ranAt > 0 {
			b.rec.add(spanRec{name: spanPlan, id: b.rec.newID(), parent: root,
				transferID: root, start: t0, end: xp.ranAt})
		}
		smp.mallocs = m1.Mallocs - m0.Mallocs
		smp.gcs = m1.NumGC - m0.NumGC
		for n := m0.NumGC + 1; n <= m1.NumGC && n+256 > m1.NumGC; n++ {
			smp.pausesMS = append(smp.pausesMS, float64(m1.PauseNs[(n+255)%256])/1e6)
		}
		if s.log != nil {
			_ = s.log.Flush() // into the counting writer, which cannot fail
		}
	}
	smp.wall, smp.cpu = time.Duration(t1-t0), cpu1-cpu0
	smp.bytes, smp.files, smp.retries = int64(rep.Bytes), rep.Files, rep.Retries
	smp.plan, smp.gapsMS = xp.plan, sp.intervalsMS()
	if xp.ranAt > 0 {
		smp.planNS = xp.ranAt - t0
	}
	smp.closeMS, smp.writeBusyNS = sp.closeMS, sp.writeBusy.Load()
	if ep != nil {
		smp.joules, smp.sampleMS = ep.take()
	}

	// Checks, outside the timing.
	problem := err
	if problem == nil && (smp.bytes != int64(ds.TotalSize()) || smp.files != int64(ds.Count())) {
		problem = fmt.Errorf("report says %d bytes in %d files, dataset is %d bytes in %d files",
			smp.bytes, smp.files, int64(ds.TotalSize()), ds.Count())
	}
	if problem == nil && vs != nil {
		problem = checkVerifySink(vs, ds)
	}
	if d != nil {
		if cerr := d.journal.Close(); problem == nil && cerr != nil {
			problem = fmt.Errorf("closing journal: %w", cerr)
		}
		if traced {
			j1 := journalCounts(b.journalReg)
			smp.journal = [2]int64{j1[0] - j0[0], j1[1] - j0[1]}
		}
		// The landed tree is checked and removed after the closed loop:
		// on a filesystem with online discard, deleting 200 MB between
		// transfers made each later transfer costlier than the one
		// before, and re-reading it here would cut the loop's samples.
		if problem == nil {
			b.landed = append(b.landed, landedTree{dir: d.dir, transfer: b.attempted + 1})
		}
		b.next = nil
		if perr := b.prepareDest(); perr != nil && problem == nil {
			problem = perr
		}
	}
	b.attempted++
	if problem != nil {
		b.fail(b.attempted, problem)
	}
	return smp
}

func journalCounts(reg *obs.Registry) [2]int64 {
	return [2]int64{reg.Counter("journal_appends").Value(), reg.Counter("journal_fsyncs").Value()}
}

// checkVerifySink reports corrupt ranges and files that did not arrive
// whole.
func checkVerifySink(vs *proto.VerifySink, ds dataset.Dataset) error {
	if bad := vs.Corrupt(); len(bad) > 0 {
		return fmt.Errorf("%d corrupt ranges, first %s", len(bad), bad[0])
	}
	for _, f := range ds.Files {
		if got := vs.BytesFor(f.Name); got != int64(f.Size) {
			return fmt.Errorf("%s: %d of %d bytes arrived", f.Name, got, int64(f.Size))
		}
	}
	return nil
}

// checkLanded re-reads every landed file against the synthetic content
// and checks that journal-verified recovery finds nothing to refetch.
func checkLanded(dir string, ds dataset.Dataset) error {
	const chunk = 1 << 20
	got, want := make([]byte, chunk), make([]byte, chunk)
	for _, f := range ds.Files {
		if err := checkFile(filepath.Join(dir, f.Name), f, got, want); err != nil {
			return err
		}
	}
	plan, err := proto.PlanResume(dir, ds.Files,
		proto.ResumeOptions{JournalPath: filepath.Join(dir, proto.JournalFileName)})
	if err != nil {
		return fmt.Errorf("planning resume: %w", err)
	}
	if plan.Refetch != 0 || len(plan.Ranges) != 0 {
		return fmt.Errorf("recovery would refetch %v in %d ranges", plan.Refetch, len(plan.Ranges))
	}
	return nil
}

func checkFile(path string, f dataset.File, got, want []byte) error {
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fh.Close()
	var off int64
	for {
		n, err := io.ReadFull(fh, got)
		if n > 0 {
			proto.FillSynth(f.Name, off, want[:n])
			if !bytes.Equal(got[:n], want[:n]) {
				return fmt.Errorf("%s: content differs in the %d bytes at %d", f.Name, n, off)
			}
			off += int64(n)
		}
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("reading %s: %w", f.Name, err)
		}
	}
	if off != int64(f.Size) {
		return fmt.Errorf("%s: %d of %d bytes landed", f.Name, off, int64(f.Size))
	}
	return nil
}

// snapshot is the probed side's program counters at one instant.
type snapshot struct {
	reg obs.Snapshot
	cw  [2]int64 // event bytes, event lines
}

func (b *bench) snapshot() snapshot {
	var s snapshot
	if b.probed == nil {
		return s
	}
	s.reg = b.probed.reg.Snapshot()
	if cw := b.probed.events; cw != nil {
		s.cw = [2]int64{cw.bytes.Load(), cw.lines.Load()}
	}
	return s
}

// modelJPerGB applies the paper's Eq. 1–2 model to one transfer: the
// process's CPU utilization over nproc cores and its NIC utilization
// against the workload's path, at the plan's channel count.
func (b *bench) modelJPerGB(s sample) float64 {
	server := monitor.LocalServerModel(b.nproc, b.w.path.Bandwidth, 0)
	sec := s.wall.Seconds()
	u := endsys.Utilization{CPU: s.cpu.Seconds() / (sec * float64(b.nproc)) * 100}
	u.NIC = float64(s.bytes) * 8 / sec / float64(server.NICRate) * 100
	u.Mem = u.NIC * server.MemPerGbps / 10
	if b.w.landed {
		u.Disk = float64(s.bytes) * 8 / sec / float64(server.Disk.MaxRate()) * 100
	}
	channels, _, _ := planShape(s.plan)
	joules := float64(energyModel.Power(u, channels)) * sec
	return joules / (float64(s.bytes) / 1e9)
}

// measured keeps the transfers that moved bytes. A transfer that
// failed verification still moved them, and its timing stands; the
// failure shows in ok_pct.
func measured(ss []sample) []sample {
	var out []sample
	for _, s := range ss {
		if s.bytes > 0 && s.wall > 0 {
			out = append(out, s)
		}
	}
	return out
}

// each maps f over samples.
func each(ss []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func (b *bench) endToEndMetrics(plain []sample, setups []float64) (map[string]measure, error) {
	ok := measured(plain)
	if len(ok) == 0 {
		return nil, fmt.Errorf("no timed transfer moved any bytes")
	}
	n := len(ok)
	return map[string]measure{
		"goodput_MBps":    {median(each(ok, sample.goodputMBps)), n},
		"cpu_s_per_GB":    {median(each(ok, func(s sample) float64 { return s.cpu.Seconds() / (float64(s.bytes) / 1e9) })), n},
		"energy_J_per_GB": {median(each(ok, b.modelJPerGB)), n},
		"setup_s":         {median(setups), len(setups)},
		"peak_rss_MB":     {peakRSSMB(), 1},
		"ok_pct":          {100 * float64(b.attempted-b.failed) / float64(b.attempted), b.attempted},
	}, nil
}
