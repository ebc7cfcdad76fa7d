package bulk

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dnscontext/internal/dnswire"
	"dnscontext/internal/obs"
	"dnscontext/internal/resolver"
	"dnscontext/internal/stats"
	"dnscontext/internal/trace"
)

// Status is the coarse outcome of one lookup, ZDNS-style: the RCode
// classes the analysis cares about plus the two client-synthesized
// failures (timeout giveup, transport error).
type Status uint8

// Lookup outcomes.
const (
	StatusNoError Status = iota
	StatusNXDomain
	StatusServFail
	StatusRefused
	StatusTimeout // every attempt silent; the client gave up
	StatusError   // transport or encode error (live path only)
	StatusBusy    // client-side ID-space exhaustion (dnsserver.ErrPoolBusy)
	numStatuses
)

// String returns the JSONL spelling of s.
func (s Status) String() string {
	switch s {
	case StatusNoError:
		return "NOERROR"
	case StatusNXDomain:
		return "NXDOMAIN"
	case StatusServFail:
		return "SERVFAIL"
	case StatusRefused:
		return "REFUSED"
	case StatusTimeout:
		return "TIMEOUT"
	case StatusError:
		return "ERROR"
	case StatusBusy:
		return "BUSY"
	}
	return "UNKNOWN"
}

// statusOfRCode maps a response RCode to its Status.
func statusOfRCode(rc uint8) Status {
	switch rc {
	case 0:
		return StatusNoError
	case 3:
		return StatusNXDomain
	case 5:
		return StatusRefused
	default:
		return StatusServFail
	}
}

// Result is one completed lookup, ready for the output pipeline.
type Result struct {
	// Index is the query's 0-based position in the feed; output order is
	// unspecified on the live path, so Index is what makes the JSONL
	// stream canonically sortable.
	Index  uint64
	Name   string
	Type   dnswire.Type
	Status Status
	RCode  uint8
	// Answers carry the response addresses with their TTLs.
	Answers []trace.Answer
	// Duration is the per-query wall time: virtual (deterministic) on the
	// simulated path, real on the live path.
	Duration time.Duration
	// Attempts is the number of wire transmissions the exchange cost (the
	// leader's count for coalesced subscribers).
	Attempts int
	// Coalesced is true when this query shared another query's in-flight
	// wire exchange instead of sending its own.
	Coalesced bool
	// Cache is true when the simulated platform answered from its shared
	// frontend cache (meaningless on the live path).
	Cache bool
	// TCPFallback is true when a truncated UDP response was re-fetched
	// over TCP (simulated path).
	TCPFallback bool
	// Err carries the live path's transport error, if any.
	Err error
}

// Options parameterizes an engine run. The zero value is usable: default
// concurrency, coalescing on, summary collection on, no metrics.
type Options struct {
	// Concurrency bounds parallelism: worker goroutines over shards on
	// the simulated path, in-flight queries on the live path. 0 means
	// GOMAXPROCS (sim) / 128 (live).
	Concurrency int
	// NoCoalesce disables in-flight query deduplication.
	NoCoalesce bool
	// Retry is the client retry ladder. Zero value means
	// resolver.DefaultRetryPolicy.
	Retry resolver.RetryPolicy
	// Metrics, when non-nil, receives the engine's instruments
	// (dnsscan_* families). Observation never changes results.
	Metrics *obs.Registry
	// Output receives the JSONL result stream; nil discards results.
	Output io.Writer
	// Checkpoint, when non-nil with a Path, makes the live run resumable:
	// completed indices and the corresponding output offset are persisted
	// periodically, and a later run with Resume set picks up where the
	// killed one stopped without duplicating or dropping output lines.
	// Ignored by the simulated path (deterministic runs re-run cheaply).
	Checkpoint *CheckpointConfig
}

func (o Options) retry() resolver.RetryPolicy {
	if o.Retry == (resolver.RetryPolicy{}) {
		return resolver.DefaultRetryPolicy()
	}
	return o.Retry
}

// engMetrics is the engine's instrument set; all fields are nil-safe.
type engMetrics struct {
	queries   *obs.Counter
	inflight  *obs.Gauge
	coalesced *obs.Counter
	latency   *obs.Timer
	byStatus  *obs.CounterVec
	// status holds byStatus's member for each status, resolved on first
	// use, so the exposition lists only statuses that occurred and a
	// lookup pays no label join or family lock.
	status [numStatuses]atomic.Pointer[obs.Counter]
}

func newEngMetrics(reg *obs.Registry) *engMetrics {
	if reg == nil {
		return &engMetrics{}
	}
	return &engMetrics{
		queries:   reg.Counter("dnsscan_queries_total", "Lookups completed by the bulk engine."),
		inflight:  reg.Gauge("dnsscan_inflight", "Lookups currently in flight."),
		coalesced: reg.Counter("dnsscan_coalesce_hits_total", "Lookups answered by joining another query's in-flight exchange."),
		latency:   reg.Timer("dnsscan_lookup_seconds", "Per-lookup duration (virtual on the simulated path)."),
		byStatus:  reg.CounterVec("dnsscan_results_total", "Lookups by outcome status.", "status"),
	}
}

func (m *engMetrics) observe(r *Result) {
	m.queries.Inc()
	m.latency.Observe(r.Duration)
	if r.Coalesced {
		m.coalesced.Inc()
	}
	if m.byStatus != nil {
		c := m.status[r.Status].Load()
		if c == nil {
			// Racing first uses resolve the same member; either store wins.
			c = m.byStatus.With(r.Status.String())
			m.status[r.Status].Store(c)
		}
		c.Inc()
	}
}

// Summary is the end-of-run rollup the engine prints after the JSONL
// stream: outcome breakdown, throughput, and latency percentiles.
type Summary struct {
	Queries   uint64
	Coalesced uint64
	ByStatus  [numStatuses]uint64
	// Feed accounting: malformed lines skipped at ingest.
	SkippedLines int
	// Wall is the real elapsed time of the run; QPS is Queries/Wall.
	Wall time.Duration
	QPS  float64
	// Latency percentiles in milliseconds over per-query durations
	// (virtual on the simulated path, wall on the live path).
	LatP50, LatP90, LatP99, LatMax, LatMean float64
}

// Count returns the tally for one status.
func (s *Summary) Count(st Status) uint64 { return s.ByStatus[st] }

// summarizer accumulates results into a Summary. Latency samples are
// collected into per-caller slices (see newSink) and merged at Finish,
// so the hot path takes no lock beyond its own slice append.
type summarizer struct {
	mu      sync.Mutex
	sum     Summary
	samples [][]float64 // merged at Finish
}

// sink is one goroutine-local accumulation lane.
type sink struct {
	s       *summarizer
	counts  [numStatuses]uint64
	queries uint64
	coal    uint64
	lat     []float64
}

// newSink returns a lane with room for capacity latency samples.
func (s *summarizer) newSink(capacity int) *sink {
	return &sink{s: s, lat: make([]float64, 0, capacity)}
}

func (k *sink) observe(r *Result) {
	k.queries++
	if r.Coalesced {
		k.coal++
	}
	k.counts[r.Status]++
	k.lat = append(k.lat, float64(r.Duration)/float64(time.Millisecond))
}

// flush folds the sink into the summarizer; call once per lane.
func (k *sink) flush() {
	k.s.mu.Lock()
	defer k.s.mu.Unlock()
	k.s.sum.Queries += k.queries
	k.s.sum.Coalesced += k.coal
	for i, c := range k.counts {
		k.s.sum.ByStatus[i] += c
	}
	k.s.samples = append(k.s.samples, k.lat)
}

// finish computes the derived fields and returns the summary.
func (s *summarizer) finish(wall time.Duration, skipped int) *Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sum.Wall = wall
	s.sum.SkippedLines = skipped
	if wall > 0 {
		s.sum.QPS = float64(s.sum.Queries) / wall.Seconds()
	}
	n := 0
	for _, lane := range s.samples {
		n += len(lane)
	}
	if n > 0 {
		e := stats.NewECDF(n)
		for _, lane := range s.samples {
			e.AddAll(lane)
		}
		s.sum.LatP50 = e.Quantile(0.50)
		s.sum.LatP90 = e.Quantile(0.90)
		s.sum.LatP99 = e.Quantile(0.99)
		s.sum.LatMax = e.Max()
		s.sum.LatMean = e.Mean()
	}
	return &s.sum
}
