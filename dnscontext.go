// Package dnscontext is a library-scale reproduction of "Putting DNS in
// Context" (Mark Allman, IMC 2020). It studies DNS lookups in the context
// of the application transactions that use them: which connections block
// on DNS, where their DNS information comes from (local cache, browser
// prefetch, shared resolver cache, or full resolution), how much the
// lookups contribute to transaction time, how the big public resolver
// platforms compare, and what local caching improvements would buy.
//
// The paper's residential ISP trace is private, so the library ships a
// calibrated synthetic substrate (see DESIGN.md): a discrete-event
// simulation of a neighborhood of houses whose devices browse, prefetch,
// run background apps, probe connectivity, and share TTL-violating stub
// caches, resolved through four resolver platforms with shared caches
// over a synthetic namespace. The analysis pipeline consumes only the two
// passive datasets the paper's monitor produced — DNS transaction records
// and connection summaries — so it runs equally on synthetic traces, on
// pcap files decoded by the zeeklite monitor, or on your own logs parsed
// into the trace types.
//
// # Quick start
//
//	cfg := dnscontext.DefaultGeneratorConfig()
//	cfg.Houses, cfg.Duration = 20, 6*time.Hour
//	ds, eco, err := dnscontext.Generate(cfg)
//	if err != nil { ... }
//	an := dnscontext.NewAnalyzer(dnscontext.WithWorkers(0)) // 0 = GOMAXPROCS
//	analysis := an.Analyze(ds)
//	analysis.Report(os.Stdout, eco.Profiles)
//
// The analysis pipeline shards the trace by originating house and runs
// on a bounded worker pool; the result is bit-identical for every worker
// count. Every entry point is a thin wrapper over one context-aware
// core path (Analyzer.AnalyzeContext).
//
// # Traces bigger than RAM
//
// Analyzer.AnalyzeSource streams a trace through the same pipeline in
// bounded memory: a Source yields records one at a time (from an
// in-memory dataset, a TSV reader pair, or a directory of
// time-partitioned trace files), and a memory budget
// (WithMemoryBudget) decides when records spill to client-hashed
// partition files instead of accumulating in RAM. The streamed result's
// classification is bit-identical to the in-memory pipeline's. For
// multi-process runs, Analyzer.CollectShard produces a mergeable
// AnalysisShard per trace slice; MergeShards + Finalize reduce them to
// the same result.
//
// The subsystems are available for separate use: the RFC 1035 codec
// (internal/dnswire re-exported here as the Wire* identifiers), the
// packet layer and pcap file I/O, the zeeklite monitor, and the
// statistics toolkit.
package dnscontext

import (
	"context"
	"io"
	"time"

	"dnscontext/internal/core"
	"dnscontext/internal/households"
	"dnscontext/internal/monitor"
	"dnscontext/internal/netsim"
	"dnscontext/internal/obs"
	"dnscontext/internal/resolver"
	"dnscontext/internal/trace"
)

// Dataset types: the two passive datasets of the paper.
type (
	// Dataset bundles DNS transaction records and connection summaries.
	Dataset = trace.Dataset
	// DNSRecord is one DNS transaction (dns.log line).
	DNSRecord = trace.DNSRecord
	// ConnRecord is one connection summary (conn.log line).
	ConnRecord = trace.ConnRecord
	// Answer is one (address, TTL) pair in a DNS response.
	Answer = trace.Answer
	// Proto is the transport protocol of a connection.
	Proto = trace.Proto
)

// Transport protocols.
const (
	TCP = trace.TCP
	UDP = trace.UDP
)

// Generator types: the synthetic residential workload.
type (
	// GeneratorConfig parameterizes trace synthesis.
	GeneratorConfig = households.Config
	// Ecosystem exposes the simulated resolver infrastructure behind a
	// generated trace.
	Ecosystem = households.Ecosystem
	// PlatformProfile describes one resolver platform.
	PlatformProfile = resolver.PlatformProfile
	// PlatformID identifies a resolver platform (Local, Google, OpenDNS,
	// Cloudflare).
	PlatformID = resolver.PlatformID
	// FaultsConfig injects packet loss, jitter, resolver outages, and UDP
	// truncation into the generator's resolution path. The zero value is
	// a pristine network and reproduces fault-free runs bit for bit.
	FaultsConfig = households.FaultsConfig
	// FaultProfile is the per-link fault model (loss, jitter, outage
	// windows, truncation threshold) used by the network simulator.
	FaultProfile = netsim.FaultProfile
	// OutageWindow is a half-open virtual-time interval during which a
	// faulted link drops every packet.
	OutageWindow = netsim.Window
	// RetryPolicy is the client-side timeout/retry/backoff ladder a
	// device applies to its lookups.
	RetryPolicy = resolver.RetryPolicy
	// FailureStats summarizes fault-path activity (retries, SERVFAILs,
	// TCP fallbacks) in an analyzed trace; see Analysis.Failures.
	FailureStats = core.FailureStats
	// TransportKind identifies a resolver wire transport (Do53, DoTCP,
	// DoT, DoH).
	TransportKind = resolver.TransportKind
	// StreamConfig parameterizes the stream transports' cost model
	// (handshake RTTs, idle timeout, session resumption).
	StreamConfig = resolver.StreamConfig
	// TransportConfig switches a generation run's resolver platforms to
	// an encrypted/stream transport; see GeneratorConfig.Transport. The
	// zero value keeps Do53 and reproduces pre-transport runs bit for
	// bit.
	TransportConfig = households.TransportConfig
	// TransportScenario is one cell of the transport what-if (a kind,
	// optionally with TLS session resumption).
	TransportScenario = core.TransportScenario
	// TransportRow is one scenario's analytic re-costing of a trace; see
	// Analysis.TransportWhatIf.
	TransportRow = core.TransportRow
)

// Resolver wire transports.
const (
	TransportUDP   = resolver.TransportUDP
	TransportTCP   = resolver.TransportTCP
	TransportTLS   = resolver.TransportTLS
	TransportHTTPS = resolver.TransportHTTPS
)

// ParseTransport maps a config/flag spelling ("udp", "tcp", "dot",
// "doh"; empty = UDP) to its TransportKind.
func ParseTransport(s string) (TransportKind, error) { return resolver.ParseTransport(s) }

// DefaultTransportScenarios is the Do53/DoTCP/DoT/DoH comparison (TLS
// transports with and without session resumption) that
// Analysis.TransportWhatIf prices by default.
func DefaultTransportScenarios() []TransportScenario { return core.DefaultTransportScenarios() }

// WriteTransportTable renders transport what-if rows as the delta table
// dnsctx -whatif-transport prints.
func WriteTransportTable(w io.Writer, rows []TransportRow, blockThreshold time.Duration) error {
	return core.WriteTransportTable(w, rows, blockThreshold)
}

// Resolver platform identifiers.
const (
	PlatformLocal      = resolver.PlatformLocal
	PlatformGoogle     = resolver.PlatformGoogle
	PlatformOpenDNS    = resolver.PlatformOpenDNS
	PlatformCloudflare = resolver.PlatformCloudflare
)

// Analysis types: the paper's pipeline.
type (
	// Analysis is a fully classified trace with table/figure accessors.
	Analysis = core.Analysis
	// Options parameterizes the analysis (thresholds, pairing policy).
	Options = core.Options
	// Class is the DNS-information origin of a connection (Table 2).
	Class = core.Class
	// PairedConn is one connection with its DN-Hunter pairing.
	PairedConn = core.PairedConn
	// PairingPolicy selects how ambiguous pairings are broken (§4).
	PairingPolicy = core.PairingPolicy
	// RefreshPolicy is a whole-house-cache refresh rule for exploring §8's
	// open question (see CompareRefreshPolicies on Analysis).
	RefreshPolicy = core.RefreshPolicy
)

// The paper's two Table 3 cache policies; PolicyIdleBounded and
// PolicyPopular (in internal/core, re-exported here) populate the space
// between them.
var (
	PolicyNever      = core.PolicyNever
	PolicyRefreshAll = core.PolicyRefreshAll
)

// PolicyIdleBounded refreshes entries only while they were used within
// maxIdle.
func PolicyIdleBounded(maxIdle time.Duration) RefreshPolicy {
	return core.PolicyIdleBounded(maxIdle)
}

// PolicyPopular refreshes entries used at least minUses times and not
// longer than maxIdle ago.
func PolicyPopular(minUses int, maxIdle time.Duration) RefreshPolicy {
	return core.PolicyPopular(minUses, maxIdle)
}

// Table 2 classes.
const (
	ClassN  = core.ClassN
	ClassLC = core.ClassLC
	ClassP  = core.ClassP
	ClassSC = core.ClassSC
	ClassR  = core.ClassR
)

// Pairing policies (§4 robustness check).
const (
	PairMostRecent = core.PairMostRecent
	PairRandom     = core.PairRandom
)

// Monitor types: the zeeklite packet pipeline.
type (
	// Monitor reconstructs the datasets from packets.
	Monitor = monitor.Monitor
	// MonitorOptions configures flow delineation.
	MonitorOptions = monitor.Options
	// SynthOptions configures dataset-to-packets synthesis.
	SynthOptions = monitor.SynthOptions
)

// DefaultGeneratorConfig returns the calibrated paper-scale generation
// parameters (100 houses, 24 h window).
func DefaultGeneratorConfig() GeneratorConfig { return households.DefaultConfig() }

// SmallGeneratorConfig returns a fast configuration for experiments and
// tests.
func SmallGeneratorConfig(seed uint64) GeneratorConfig { return households.SmallConfig(seed) }

// Generate synthesizes the two datasets for cfg.
func Generate(cfg GeneratorConfig) (*Dataset, *Ecosystem, error) { return households.Generate(cfg) }

// DefaultOptions returns the paper's analysis parameters (100 ms blocking
// threshold, per-resolver SC/R thresholds, most-recent pairing).
func DefaultOptions() Options { return core.DefaultOptions() }

// Analyzer runs the paper's pipeline — DN-Hunter pairing, the blocking
// heuristic, and the N/LC/P/SC/R classification — over datasets. It is
// configured once with functional options and can be reused across
// traces and goroutines; each Analyze call shards its dataset by
// originating house and fans out over a bounded worker pool.
type Analyzer struct {
	opts core.Options
}

// AnalyzerOption configures an Analyzer.
type AnalyzerOption func(*Analyzer)

// NewAnalyzer returns an Analyzer with the paper's defaults, modified by
// the given options:
//
//	an := dnscontext.NewAnalyzer(
//	        dnscontext.WithBlockThreshold(20*time.Millisecond),
//	        dnscontext.WithWorkers(8),
//	)
//	analysis := an.Analyze(ds)
func NewAnalyzer(opts ...AnalyzerOption) *Analyzer {
	an := &Analyzer{opts: core.DefaultOptions()}
	for _, o := range opts {
		o(an)
	}
	return an
}

// WithOptions replaces the Analyzer's entire option set; later
// AnalyzerOptions still apply on top. It bridges code that already
// assembles an Options struct into the Analyzer API, and it is how the
// fields without an option of their own are set: the pairing policy and
// seed, the knee and default SC/R thresholds, the insignificance
// criteria, the metrics registry and the checkpoint.
func WithOptions(o Options) AnalyzerOption { return func(an *Analyzer) { an.opts = o } }

// WithBlockThreshold sets the gap separating blocked from non-blocked
// connections (paper: a conservative 100 ms).
func WithBlockThreshold(d time.Duration) AnalyzerOption {
	return func(an *Analyzer) { an.opts.BlockThreshold = d }
}

// WithSCRMinSamples caps the per-resolver sample gate for deriving SC/R
// duration thresholds (paper: 1000).
func WithSCRMinSamples(n int) AnalyzerOption {
	return func(an *Analyzer) { an.opts.SCRMinSamples = n }
}

// WithWorkers bounds the analysis worker pool; 0 (the default) uses
// GOMAXPROCS. The analysis result is bit-identical for every value.
func WithWorkers(n int) AnalyzerOption {
	return func(an *Analyzer) { an.opts.Workers = n }
}

// AnalyzeContext is the core analysis path every other entry point
// wraps: cooperative cancellation via ctx (the worker pool checks it
// between shards), one pipeline, one result shape. A cancelled run
// returns a nil Analysis and an error wrapping the context's error —
// never a partial result. The dataset is time-sorted in place. Safe
// for concurrent use with distinct datasets.
//
// MemoryBudget/SpillDir are ignored here — the dataset is by
// definition already resident; use AnalyzeSource for out-of-core runs.
func (an *Analyzer) AnalyzeContext(ctx context.Context, ds *Dataset) (*Analysis, error) {
	return core.AnalyzeContext(ctx, ds, an.opts)
}

// Analyze is AnalyzeContext without cancellation or checkpointing: it
// ignores Options.Checkpoint, so it has no error to return. Use
// AnalyzeContext to snapshot or resume a run.
func (an *Analyzer) Analyze(ds *Dataset) *Analysis { return core.Analyze(ds, an.opts) }

// AnalyzeSource streams src through the pipeline in bounded memory;
// see the package comment's "Traces bigger than RAM" and
// Analysis.Summary for what a spilled (summary-grade) result carries.
// Without a memory budget the whole source is ingested and the
// in-memory pipeline runs; classification results are bit-identical
// either way. The analysis keeps the streamed records in its own
// compact form only; Paired and DNSUsed index the streams' record
// order.
func (an *Analyzer) AnalyzeSource(ctx context.Context, src Source) (*Analysis, error) {
	return core.AnalyzeSource(ctx, src, an.opts)
}

// CollectShard runs the map phase only: it ingests and classifies src
// exactly as AnalyzeSource but returns the mergeable AnalysisShard, so
// several processes can each cover a client-disjoint slice of a trace
// and MergeShards + Finalize reduce them to one Analysis.
func (an *Analyzer) CollectShard(ctx context.Context, src Source) (*AnalysisShard, error) {
	return core.CollectShard(ctx, src, an.opts)
}

// Observability types: the internal/obs subsystem. A registry collects
// counters, gauges, and latency histograms from every instrumented layer
// (resolver platforms, simulation engine, monitor, analyzer); a tracer
// records the analysis pipeline's phase timeline. Both only observe —
// seeded runs are bit-identical with observability on or off.
type (
	// MetricsRegistry collects metric families and renders deterministic
	// snapshots (Prometheus text or JSON).
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is one consistent, ordered view of a registry.
	MetricsSnapshot = obs.Snapshot
	// Tracer records the analysis pipeline's phase/shard timeline.
	Tracer = obs.Tracer
	// Timeline is a finished Tracer rendering (text or JSON).
	Timeline = obs.Timeline
	// MetricsServer serves /metrics, /metrics.json, and optionally
	// /debug/pprof over HTTP.
	MetricsServer = obs.Server
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTracer returns a tracer ready to record one analysis run.
func NewTracer() *Tracer { return obs.NewTracer() }

// ServeMetrics binds addr (e.g. ":9090") and serves reg's snapshots at
// /metrics (Prometheus text) and /metrics.json; withPprof additionally
// mounts net/http/pprof under /debug/pprof/.
func ServeMetrics(addr string, reg *MetricsRegistry, withPprof bool) (*MetricsServer, error) {
	return obs.Serve(addr, reg, withPprof)
}

// WithTracer records each run's phase timeline and shard distribution
// into tr. A Tracer holds one run; use a fresh one per Analyze call.
func WithTracer(tr *Tracer) AnalyzerOption {
	return func(an *Analyzer) { an.opts.Trace = tr }
}

// DefaultProfiles returns the four calibrated resolver platform profiles.
func DefaultProfiles() []PlatformProfile { return resolver.DefaultProfiles() }

// NewMonitor returns a zeeklite passive monitor.
func NewMonitor(opts MonitorOptions) *Monitor { return monitor.New(opts) }

// DefaultMonitorOptions mirrors the paper's Bro configuration (60 s UDP
// flow timeout).
func DefaultMonitorOptions() MonitorOptions { return monitor.DefaultOptions() }

// Synthesize renders a dataset as Ethernet frames in chronological order.
func Synthesize(ds *Dataset, opts SynthOptions, sink monitor.FrameSink) error {
	return monitor.Synthesize(ds, opts, sink)
}

// WriteDNS / ReadDNS / WriteConns / ReadConns serialize the datasets in
// Bro-style TSV.
func WriteDNS(w io.Writer, recs []DNSRecord) error    { return trace.WriteDNS(w, recs) }
func ReadDNS(r io.Reader) ([]DNSRecord, error)        { return trace.ReadDNS(r) }
func WriteConns(w io.Writer, recs []ConnRecord) error { return trace.WriteConns(w, recs) }
func ReadConns(r io.Reader) ([]ConnRecord, error)     { return trace.ReadConns(r) }

// Streaming ingestion types: iterator-style TSV readers with quarantine.
// Where ReadDNS/ReadConns abort an entire ingest on the first malformed
// line, the scanners yield one record at a time in bounded memory and
// take an ErrorPolicy: strict mode reproduces the readers bit for bit,
// quarantine mode diverts malformed lines (with their line number and
// cause) to a sink and keeps going until an ErrorBudget trips.
type (
	// DNSScanner yields DNS transaction records one at a time.
	DNSScanner = trace.DNSScanner
	// ConnScanner yields connection summaries one at a time.
	ConnScanner = trace.ConnScanner
	// ErrorPolicy decides what a scanner does with malformed lines.
	ErrorPolicy = trace.ErrorPolicy
	// ErrorBudget bounds quarantining before a scan gives up.
	ErrorBudget = trace.ErrorBudget
	// Quarantined is one diverted malformed line: where, what, and why.
	Quarantined = trace.Quarantined
	// ScanStats summarizes a scanner's progress.
	ScanStats = trace.ScanStats
)

// ErrBudgetExceeded is matched (via errors.Is) by the error a scanner or
// monitor reports when its quarantine budget trips.
var ErrBudgetExceeded = trace.ErrBudgetExceeded

// NewDNSScanner returns a streaming DNS-record reader over r.
func NewDNSScanner(r io.Reader, policy ErrorPolicy) *DNSScanner {
	return trace.NewDNSScanner(r, policy)
}

// NewConnScanner returns a streaming connection-summary reader over r.
func NewConnScanner(r io.Reader, policy ErrorPolicy) *ConnScanner {
	return trace.NewConnScanner(r, policy)
}

// StrictPolicy returns the fail-fast policy matching ReadDNS/ReadConns.
func StrictPolicy() ErrorPolicy { return trace.Strict() }

// QuarantineBudget returns a quarantining policy tripping after
// maxErrors quarantined records (negative = unlimited) or when the error
// rate exceeds maxRate (0 = no rate check).
func QuarantineBudget(maxErrors int, maxRate float64) ErrorPolicy {
	return trace.QuarantineBudget(maxErrors, maxRate)
}

// Streaming analysis types: the out-of-core Source/shard surface.
type (
	// Source is a stream of the two trace datasets, the input side of
	// the out-of-core analysis path. Implementations must yield each
	// stream in nondecreasing time order (the analyzer verifies).
	Source = trace.Source
	// DatasetSource adapts an in-memory Dataset to the Source interface.
	DatasetSource = trace.DatasetSource
	// ScannerSource streams a Bro-style TSV reader pair through the
	// quarantining scanners (one-shot: the readers are consumed).
	ScannerSource = trace.ScannerSource
	// DirSource streams a directory of time-partitioned trace files
	// (*.dns.tsv / *.conn.tsv, concatenated in name order).
	DirSource = trace.DirSource
	// AnalysisShard is a mergeable partial analysis: the map-side output
	// of the out-of-core pipeline. Merging is associative and
	// commutative; Finalize reduces a shard to a summary-grade Analysis.
	AnalysisShard = core.AnalysisShard
)

// ErrShardMismatch is matched (via errors.Is) when shards produced
// under different result-affecting options — or covering overlapping
// clients — refuse to merge.
var ErrShardMismatch = core.ErrShardMismatch

// NewDatasetSource returns a Source over an in-memory dataset.
// Analyzer.AnalyzeSource short-circuits it to the zero-copy in-memory
// pipeline when no memory budget is set.
func NewDatasetSource(ds *Dataset) *DatasetSource { return trace.NewDatasetSource(ds) }

// NewScannerSource returns a Source reading DNS records from dns and
// connection summaries from conns under the given error policy. The
// caller retains ownership of the readers (and closes any files).
func NewScannerSource(dns, conns io.Reader, policy ErrorPolicy) *ScannerSource {
	return trace.NewScannerSource(dns, conns, policy)
}

// NewDirSource returns a Source over the time-partitioned trace files
// in dir: files ending in .dns.tsv/.dns.log form the DNS stream and
// .conn.tsv/.conn.log the connection stream, each concatenated in
// lexicographic name order.
func NewDirSource(dir string, policy ErrorPolicy) *DirSource {
	return trace.NewDirSource(dir, policy)
}

// MergeShards folds client-disjoint shards — possibly collected by
// separate processes — into one. See AnalysisShard.Merge for the
// compatibility rules.
func MergeShards(shards ...*AnalysisShard) (*AnalysisShard, error) {
	return core.MergeShards(shards...)
}

// WriteAnalysisShard atomically serializes a shard to path in the
// checkpoint envelope (magic, CRC, atomic rename); ReadAnalysisShard
// loads it back. The encoding is canonical, so equal shards serialize
// to equal bytes.
func WriteAnalysisShard(path string, s *AnalysisShard) error { return core.WriteShardFile(path, s) }

// ReadAnalysisShard loads a shard written by WriteAnalysisShard.
func ReadAnalysisShard(path string) (*AnalysisShard, error) { return core.ReadShardFile(path) }

// WithMemoryBudget bounds how many bytes of records AnalyzeSource keeps
// resident before spilling to disk, counted in the analysis' compact
// record form; 0 (the default) means unlimited. Spilling never changes classification results, only peak
// memory — and whether the returned Analysis is summary-grade (see
// Analysis.Summary). Ignored by Analyze/AnalyzeContext, which by
// definition already hold the dataset.
func WithMemoryBudget(bytes int64) AnalyzerOption {
	return func(an *Analyzer) { an.opts.MemoryBudget = bytes }
}

// WithSpillDir sets where AnalyzeSource puts spill partitions when the
// memory budget trips. Empty (the default) means a fresh directory
// under the OS temp dir, removed when the analysis finishes.
func WithSpillDir(dir string) AnalyzerOption {
	return func(an *Analyzer) { an.opts.SpillDir = dir }
}

// Checkpoint/resume: AnalysisCheckpoint configures periodic snapshots of
// completed analysis shards (see Options.Checkpoint); a resumed run
// replays the snapshot and classifies only the remaining shards, with a
// bit-identical result at any worker count.
type AnalysisCheckpoint = core.Checkpoint

// ErrCheckpointMismatch is matched (via errors.Is) when a checkpoint was
// written for a different dataset or different analysis options.
var ErrCheckpointMismatch = core.ErrCheckpointMismatch
