package trace

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Source is a stream of the two trace datasets. It is the input side of
// the out-of-core analysis path: where the in-memory pipeline demands a
// fully resident *Dataset, a Source yields one record at a time, so the
// analyzer can run in bounded memory over traces far larger than RAM.
//
// The contract every implementation must honor:
//
//   - StreamDNS yields DNS records in nondecreasing response-time (TS)
//     order; StreamConns yields connection summaries in nondecreasing
//     start-time order. This matches the order Dataset.SortByTime
//     establishes, which every analysis pass assumes. The analyzer
//     verifies the order and fails fast on violations rather than
//     silently misclassifying.
//   - The record pointer passed to yield is only valid for the duration
//     of the call; consumers copy what they keep.
//   - A Source may be one-shot (a ScannerSource consumes its readers).
//     The analyzer scans each stream exactly once, DNS first.
//
// Implementations in this package: DatasetSource (an in-memory Dataset),
// ScannerSource (a streaming TSV reader pair), and DirSource (a
// directory of time-partitioned trace files).
type Source interface {
	// StreamDNS invokes yield for every DNS record, in nondecreasing TS
	// order. A non-nil error from yield aborts the stream and is
	// returned verbatim.
	StreamDNS(yield func(*DNSRecord) error) error
	// StreamConns is StreamDNS for connection summaries.
	StreamConns(yield func(*ConnRecord) error) error
}

// DatasetSource adapts an in-memory Dataset to the Source interface.
// The dataset is time-sorted in place on first use, exactly as the
// in-memory analysis path would.
type DatasetSource struct {
	DS *Dataset
}

// NewDatasetSource returns a Source over ds.
func NewDatasetSource(ds *Dataset) *DatasetSource { return &DatasetSource{DS: ds} }

// StreamDNS implements Source.
func (s *DatasetSource) StreamDNS(yield func(*DNSRecord) error) error {
	s.DS.SortByTime() // early-outs when already sorted
	for i := range s.DS.DNS {
		if err := yield(&s.DS.DNS[i]); err != nil {
			return err
		}
	}
	return nil
}

// StreamConns implements Source.
func (s *DatasetSource) StreamConns(yield func(*ConnRecord) error) error {
	s.DS.SortByTime()
	for i := range s.DS.Conns {
		if err := yield(&s.DS.Conns[i]); err != nil {
			return err
		}
	}
	return nil
}

// ScannerSource streams the two Bro-style TSV logs through the
// quarantining scanners. It is one-shot: the readers are consumed by
// the first scan. The ErrorPolicy applies to both streams.
type ScannerSource struct {
	dns     io.Reader
	conns   io.Reader
	policy  ErrorPolicy
	workers int
}

// NewScannerSource returns a Source reading DNS records from dns and
// connection summaries from conns under the given error policy. The
// caller retains ownership of the readers (and closes any files).
func NewScannerSource(dns, conns io.Reader, policy ErrorPolicy) *ScannerSource {
	return &ScannerSource{dns: dns, conns: conns, policy: policy}
}

// SetIngestWorkers selects how many goroutines parse the TSV streams
// in the chunk pipeline (see chunked.go); zero or one parses on one
// goroutine. At every width the record sequence, quarantine decisions,
// budget trip points, and errors are those of a serial scan — only the
// wall clock moves.
func (s *ScannerSource) SetIngestWorkers(n int) { s.workers = n }

// StreamDNS implements Source.
func (s *ScannerSource) StreamDNS(yield func(*DNSRecord) error) error {
	return streamRecords([]streamInput{{r: s.dns}}, s.policy, s.workers, parseDNSLineBytes, yield)
}

// StreamConns implements Source.
func (s *ScannerSource) StreamConns(yield func(*ConnRecord) error) error {
	return streamRecords([]streamInput{{r: s.conns}}, s.policy, s.workers, parseConnLineBytes, yield)
}

// streamRecords scans the inputs of one stream in order through one
// chunk pipeline on max(workers, 1) parse goroutines. Each input keeps
// its own line numbers and budget counters, its errors and quarantined
// lines carry its path, and policy.Done gets its tally.
func streamRecords[R any](inputs []streamInput, policy ErrorPolicy, workers int,
	parse func(lineNo int, line []byte, st *parseState, rec *R) error, yield func(*R) error) error {
	workers = max(workers, 1)
	return scanChunked(inputs, workers, ingestChunkBytes, policy, newParseStates[R](workers), parse, yield)
}

// DirSource streams a directory of time-partitioned trace files: the
// shape a long capture naturally lands in (one file pair per hour or
// day). Files ending in ".dns.tsv" or ".dns.log" form the DNS stream
// and files ending in ".conn.tsv" or ".conn.log" form the connection
// stream; each stream's files are concatenated in lexicographic name
// order, so naming partitions with a sortable timestamp or sequence
// prefix (2019-02-06T00.dns.tsv, part-000.conn.tsv, ...) yields a
// correctly ordered stream. Unlike ScannerSource, a DirSource is
// re-scannable: it opens and closes the files itself on every pass.
type DirSource struct {
	dir     string
	policy  ErrorPolicy
	workers int
}

// NewDirSource returns a Source over the partitioned trace files in dir.
func NewDirSource(dir string, policy ErrorPolicy) *DirSource {
	return &DirSource{dir: dir, policy: policy}
}

// SetIngestWorkers selects how many goroutines parse the partitions;
// see ScannerSource.SetIngestWorkers. One pipeline parses all of a
// stream's files, in name order, so the workers do not drain at each
// file's end; the concatenated stream, each file's line numbers, budget
// counters and errors are those of a serial scan of each file, and the
// files share their parse states and buffers (name interning, the
// address cache, the chunk buffers and record slices carry over from
// file to file).
func (s *DirSource) SetIngestWorkers(n int) { s.workers = n }

// partitions lists dir's files carrying one of the given suffixes,
// sorted by name.
func (s *DirSource) partitions(suffixes ...string) ([]streamInput, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		for _, suf := range suffixes {
			if strings.HasSuffix(e.Name(), suf) {
				files = append(files, filepath.Join(s.dir, e.Name()))
				break
			}
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("trace: no %s partitions in %s", strings.TrimPrefix(suffixes[0], "."), s.dir)
	}
	inputs := make([]streamInput, len(files))
	for i, f := range files {
		inputs[i].path = f
	}
	return inputs, nil
}

// StreamDNS implements Source.
func (s *DirSource) StreamDNS(yield func(*DNSRecord) error) error {
	inputs, err := s.partitions(".dns.tsv", ".dns.log")
	if err != nil {
		return err
	}
	return streamRecords(inputs, s.policy, s.workers, parseDNSLineBytes, yield)
}

// StreamConns implements Source.
func (s *DirSource) StreamConns(yield func(*ConnRecord) error) error {
	inputs, err := s.partitions(".conn.tsv", ".conn.log")
	if err != nil {
		return err
	}
	return streamRecords(inputs, s.policy, s.workers, parseConnLineBytes, yield)
}
