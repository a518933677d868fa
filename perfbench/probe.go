package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/didclab/eta/internal/dataset"
	"github.com/didclab/eta/internal/proto"
	"github.com/didclab/eta/internal/transfer"
	"github.com/didclab/eta/internal/units"
)

// epoch anchors every timestamp the benchmark takes; time.Since reads
// the monotonic clock.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// Span names, one per layer boundary the benchmark wraps.
const (
	spanTransfer = "transfer"       // one closed-loop transfer, as the user sees it
	spanPlan     = "core.plan"      // algorithm start until it calls the executor
	spanExecutor = "executor.run"   // proto.Executor.Run
	spanRead     = "store.read"     // proto.Store.ReadAt on the server
	spanWrite    = "sink.write"     // proto.Sink.WriteAt on the client
	spanClose    = "sink.close"     // proto.Sink.Close on the client
	spanSample   = "monitor.sample" // EnergySource.Total
)

// spanRec is one finished span.
type spanRec struct {
	name                   string
	id, parent, transferID uint64
	start, end             int64
}

// recorder keeps the benchmark's spans in memory. It records only
// while on, which the run loop sets around traced transfers; layer
// probes parent their spans under the executor span in flight.
type recorder struct {
	on       atomic.Bool
	ids      atomic.Uint64
	parent   atomic.Uint64
	transfer atomic.Uint64

	mu    sync.Mutex
	spans []spanRec
}

func (r *recorder) newID() uint64 { return r.ids.Add(1) }

func (r *recorder) add(s spanRec) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// active reports whether spans are being recorded; a nil recorder never
// records.
func (r *recorder) active() bool { return r != nil && r.on.Load() }

// begin opens a leaf span; it returns -1 when the recorder is off.
func (r *recorder) begin() int64 {
	if !r.active() {
		return -1
	}
	return now()
}

// end closes a leaf span opened by begin and returns its duration in
// nanoseconds (0 when begin returned -1).
func (r *recorder) end(name string, start int64) int64 {
	if start < 0 {
		return 0
	}
	t := now()
	r.add(spanRec{name: name, id: r.newID(), parent: r.parent.Load(),
		transferID: r.transfer.Load(), start: start, end: t})
	return t - start
}

func (r *recorder) snapshot() []spanRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]spanRec(nil), r.spans...)
}

// selfTimes returns each span name's total self time in seconds: a
// span's duration minus the part of it its children cover.
func selfTimes(spans []spanRec) map[string]float64 {
	kids := make(map[uint64][]interval)
	for _, s := range spans {
		kids[s.parent] = append(kids[s.parent], interval{s.start, s.end})
	}
	self := make(map[string]float64)
	for _, s := range spans {
		own := s.end - s.start - covered(kids[s.id], s.start, s.end)
		self[s.name] += float64(own) / 1e9
	}
	return self
}

// writeChromeTrace writes spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Each transfer is one thread lane.
func writeChromeTrace(w io.Writer, spans []spanRec) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  uint64         `json:"tid"`
		Args map[string]any `json:"args"`
	}
	sorted := append([]spanRec(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	for i, s := range sorted {
		if i > 0 {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		err := enc.Encode(event{Name: s.name, Ph: "X", TS: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, PID: 1, TID: s.transferID,
			Args: map[string]any{"id": s.id, "parent": s.parent, "transfer": s.transferID}})
		if err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// storeProbe wraps the server's store. It forwards Version so the
// server's CRC sidecar cache stays on.
type storeProbe struct {
	inner *proto.SynthStore
	rec   *recorder
	calls atomic.Int64
	bytes atomic.Int64
	busy  atomic.Int64 // ns
}

func (s *storeProbe) List() ([]dataset.File, error) { return s.inner.List() }

func (s *storeProbe) ReadAt(name string, p []byte, off int64) (int, error) {
	t := s.rec.begin()
	n, err := s.inner.ReadAt(name, p, off)
	if d := s.rec.end(spanRead, t); t >= 0 {
		s.calls.Add(1)
		s.bytes.Add(int64(n))
		s.busy.Add(d)
	}
	return n, err
}

func (s *storeProbe) Version(name string) (int64, int64, bool) { return s.inner.Version(name) }

// sinkProbe wraps the client's sink for one transfer. It always records
// when each file completed (the file-interval metric) and, while the
// recorder is on, write and close spans.
type sinkProbe struct {
	inner proto.Sink
	rec   *recorder
	// flip corrupts one byte of the first block written, so a test can
	// prove the verification catches it.
	flip    bool
	flipped atomic.Bool

	writeBusy atomic.Int64 // ns
	mu        sync.Mutex
	closedAt  []int64
	closeMS   []float64
}

// prealloSinkProbe is a sinkProbe over a sink that preallocates; the
// client only calls Preallocate on sinks that have it, so the probe
// must not add the method to sinks that lack it.
type prealloSinkProbe struct{ *sinkProbe }

func (p prealloSinkProbe) Preallocate(name string, size int64) error {
	return p.inner.(proto.Preallocator).Preallocate(name, size)
}

// newSinkProbe wraps inner for a transfer of files files.
func newSinkProbe(inner proto.Sink, rec *recorder, files int, flip bool) (*sinkProbe, proto.Sink) {
	p := &sinkProbe{inner: inner, rec: rec, flip: flip,
		closedAt: make([]int64, 0, files), closeMS: make([]float64, 0, files)}
	if _, ok := inner.(proto.Preallocator); ok {
		return p, prealloSinkProbe{p}
	}
	return p, p
}

func (s *sinkProbe) WriteAt(name string, p []byte, off int64) (int, error) {
	if s.flip && len(p) > 0 && s.flipped.CompareAndSwap(false, true) {
		bad := append([]byte(nil), p...)
		bad[0] ^= 0xFF
		p = bad
	}
	t := s.rec.begin()
	n, err := s.inner.WriteAt(name, p, off)
	if d := s.rec.end(spanWrite, t); t >= 0 {
		s.writeBusy.Add(d)
	}
	return n, err
}

func (s *sinkProbe) Close(name string) error {
	t := s.rec.begin()
	err := s.inner.Close(name)
	d := s.rec.end(spanClose, t)
	done := now()
	s.mu.Lock()
	s.closedAt = append(s.closedAt, done)
	if t >= 0 {
		s.closeMS = append(s.closeMS, float64(d)/1e6)
	}
	s.mu.Unlock()
	return err
}

// intervalsMS returns the gaps between successive file completions.
func (s *sinkProbe) intervalsMS() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := append([]int64(nil), s.closedAt...)
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	gaps := make([]float64, 0, len(ts))
	for i := 1; i < len(ts); i++ {
		gaps = append(gaps, float64(ts[i]-ts[i-1])/1e6)
	}
	return gaps
}

// discardSink drops every payload.
type discardSink struct{}

func (discardSink) WriteAt(_ string, p []byte, _ int64) (int, error) { return len(p), nil }
func (discardSink) Close(string) error                               { return nil }

// energyProbe wraps the executor's energy source and, while the
// recorder is on, keeps every reading and how long it took.
type energyProbe struct {
	inner proto.EnergySource
	rec   *recorder

	mu       sync.Mutex
	readings []units.Joules
	tookMS   []float64
}

func (e *energyProbe) Total() (units.Joules, error) {
	t := e.rec.begin()
	j, err := e.inner.Total()
	if d := e.rec.end(spanSample, t); t >= 0 && err == nil {
		e.mu.Lock()
		e.readings = append(e.readings, j)
		e.tookMS = append(e.tookMS, float64(d)/1e6)
		e.mu.Unlock()
	}
	return j, err
}

// take returns and clears the readings kept so far.
func (e *energyProbe) take() ([]units.Joules, []float64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, d := e.readings, e.tookMS
	e.readings, e.tookMS = nil, nil
	return r, d
}

// execProbe wraps the executor an algorithm drives: it records the plan
// it receives and when, and spans the executor call.
type execProbe struct {
	*proto.Executor
	rec *recorder

	ranAt int64 // when Run was called
	plan  transfer.Plan
}

func (p *execProbe) Run(ctx context.Context, plan transfer.Plan) (transfer.Report, error) {
	p.ranAt = now()
	p.plan = plan
	if !p.rec.active() {
		return p.Executor.Run(ctx, plan)
	}
	id := p.rec.newID()
	parent := p.rec.parent.Swap(id)
	defer p.rec.parent.Store(parent)
	r, err := p.Executor.Run(ctx, plan)
	p.rec.add(spanRec{name: spanExecutor, id: id, parent: parent,
		transferID: p.rec.transfer.Load(), start: p.ranAt, end: now()})
	return r, err
}

// planShape summarizes a plan as the executor received it.
func planShape(plan transfer.Plan) (channels, streams, pipeMax int) {
	for _, c := range plan.Chunks {
		channels += c.Channels
		streams += c.Channels * c.Parallelism()
		if p := c.Pipelining(); p > pipeMax {
			pipeMax = p
		}
	}
	return channels, streams, pipeMax
}
