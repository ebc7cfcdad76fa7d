package main

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dnscontext"
	"dnscontext/internal/bulk"
	"dnscontext/internal/dnswire"
)

// The traced run measures layers from outside the program: it times
// calls into public functions and wraps public interfaces in the
// decorators below. Every decorator passes results through unchanged,
// so a traced pass must produce the same output as an untraced one.

// span is one timed interval of a traced run. Start and End are seconds
// since the run began; Parent is the enclosing span's ID (0 = none).
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Pass     int     `json:"pass"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// *spanLog is an untraced pass: every method is a no-op.
type spanLog struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	pass     int
	cur      int // the innermost open span: the default parent
	spans    []span
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{t0: time.Now(), workload: workload}
}

// add records a closed span and returns its ID; parent 0 means the
// innermost open span.
func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if parent == 0 {
		parent = l.cur
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name, Workload: l.workload, Pass: l.pass,
		Start: start.Sub(l.t0).Seconds(), End: end.Sub(l.t0).Seconds(),
	})
	return id
}

// push opens a span under the innermost open one and makes it the
// parent of spans added until pop closes it.
func (l *spanLog) push(name string, start time.Time) int {
	if l == nil {
		return 0
	}
	id := l.add(name, 0, start, start)
	l.mu.Lock()
	l.cur = id
	l.mu.Unlock()
	return id
}

func (l *spanLog) pop(id int, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id-1]
	s.End = end.Sub(l.t0).Seconds()
	l.cur = s.Parent
}

// startPass numbers the spans that follow and opens the pass span.
func (l *spanLog) startPass(pass int, start time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	l.pass = pass
	l.mu.Unlock()
	return l.push("pass", start)
}

// sampleEvery is the span sampling rate of per-query calls: all of them
// land in a histogram, one in sampleEvery also as a span.
const sampleEvery = 1000

// callStats aggregates one per-query call site (Scan, Query, Write).
type callStats struct {
	name string
	log  *spanLog
	h    hist
}

func (c *callStats) observe(start, end time.Time) {
	c.h.observe(end.Sub(start))
	if c.h.count.Load()%sampleEvery == 1 {
		c.log.add(c.name, 0, start, end)
	}
}

// timedTraceSource wraps the analyzer's trace input. It times each
// stream call and, inside it, the analyzer's callbacks, so the call time
// splits into the trace layer's own share and the consumer's.
type timedTraceSource struct {
	src      dnscontext.Source
	log      *spanLog
	dnsStart time.Time // anchors the analyzer's phase timeline

	dnsCall, connCall   time.Duration
	dnsYield, connYield time.Duration
}

// SetIngestWorkers forwards the parallel-parse capability the analyzer
// probes for; without it a decorated source would silently parse
// serially.
func (s *timedTraceSource) SetIngestWorkers(n int) {
	if t, ok := s.src.(interface{ SetIngestWorkers(int) }); ok {
		t.SetIngestWorkers(n)
	}
}

func (s *timedTraceSource) StreamDNS(yield func(*dnscontext.DNSRecord) error) error {
	start := time.Now()
	if s.dnsStart.IsZero() {
		s.dnsStart = start
	}
	err := s.src.StreamDNS(func(r *dnscontext.DNSRecord) error {
		t := time.Now()
		err := yield(r)
		s.dnsYield += time.Since(t)
		return err
	})
	end := time.Now()
	s.dnsCall += end.Sub(start)
	s.log.add("trace.stream_dns", 0, start, end)
	return err
}

func (s *timedTraceSource) StreamConns(yield func(*dnscontext.ConnRecord) error) error {
	start := time.Now()
	err := s.src.StreamConns(func(r *dnscontext.ConnRecord) error {
		t := time.Now()
		err := yield(r)
		s.connYield += time.Since(t)
		return err
	})
	end := time.Now()
	s.connCall += end.Sub(start)
	s.log.add("trace.stream_conns", 0, start, end)
	return err
}

// timedFeed wraps a scan feed. The engine calls Scan from one goroutine,
// so the gap between calls is the time the feed waited on the engine.
type timedFeed struct {
	src  bulk.Source
	scan callStats
	wait time.Duration
	last time.Time
}

func newTimedFeed(src bulk.Source, log *spanLog) *timedFeed {
	return &timedFeed{src: src, scan: callStats{name: "bulk.feed.scan", log: log}}
}

func (f *timedFeed) Scan() bool {
	start := time.Now()
	if !f.last.IsZero() {
		f.wait += start.Sub(f.last)
	}
	ok := f.src.Scan()
	f.last = time.Now()
	f.scan.observe(start, f.last)
	return ok
}

func (f *timedFeed) Query() bulk.Query { return f.src.Query() }
func (f *timedFeed) Err() error        { return f.src.Err() }

// timedExchanger wraps the live scan's wire exchange.
type timedExchanger struct {
	ex    bulk.LiveExchanger
	query callStats
}

func newTimedExchanger(ex bulk.LiveExchanger, log *spanLog) *timedExchanger {
	return &timedExchanger{ex: ex, query: callStats{name: "pool.query", log: log}}
}

func (e *timedExchanger) Query(ctx context.Context, name string, qtype dnswire.Type) (*dnswire.Message, error) {
	start := time.Now()
	m, err := e.ex.Query(ctx, name, qtype)
	e.query.observe(start, time.Now())
	return m, err
}

// timedWriter wraps an output stream: time inside Write and bytes
// accepted.
type timedWriter struct {
	w     io.Writer
	write callStats
	bytes atomic.Int64
}

func newTimedWriter(w io.Writer, name string, log *spanLog) *timedWriter {
	return &timedWriter{w: w, write: callStats{name: name, log: log}}
}

func (w *timedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := w.w.Write(p)
	w.write.observe(start, time.Now())
	w.bytes.Add(int64(n))
	return n, err
}
