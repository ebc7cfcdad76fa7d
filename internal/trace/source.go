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

// SetIngestWorkers selects how many goroutines parse the TSV streams.
// Values above one enable the chunked parallel scan (see chunked.go);
// zero or one keeps the serial scanners. Either way the record
// sequence, quarantine decisions, budget trip points, and errors are
// bit-identical — only the wall clock moves.
func (s *ScannerSource) SetIngestWorkers(n int) { s.workers = n }

// StreamDNS implements Source.
func (s *ScannerSource) StreamDNS(yield func(*DNSRecord) error) error {
	if s.workers > 1 {
		return scanChunkedDNS(s.dns, s.workers, s.policy, yield)
	}
	sc := NewDNSScanner(s.dns, s.policy)
	for sc.Scan() {
		// The scanner's own record: yield's pointer is valid only for
		// the call, so no per-record copy is needed.
		if err := yield(&sc.rec); err != nil {
			return err
		}
	}
	return sc.Err()
}

// StreamConns implements Source.
func (s *ScannerSource) StreamConns(yield func(*ConnRecord) error) error {
	if s.workers > 1 {
		return scanChunkedConns(s.conns, s.workers, s.policy, yield)
	}
	sc := NewConnScanner(s.conns, s.policy)
	for sc.Scan() {
		if err := yield(&sc.rec); err != nil {
			return err
		}
	}
	return sc.Err()
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

// SetIngestWorkers selects how many goroutines parse each partition
// file; see ScannerSource.SetIngestWorkers. Files are still consumed
// one at a time in name order, so the concatenated stream is unchanged.
func (s *DirSource) SetIngestWorkers(n int) { s.workers = n }

// partitionFiles lists dir's files carrying one of the given suffixes,
// sorted by name.
func (s *DirSource) partitionFiles(suffixes ...string) ([]string, error) {
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
	return files, nil
}

// StreamDNS implements Source.
func (s *DirSource) StreamDNS(yield func(*DNSRecord) error) error {
	files, err := s.partitionFiles(".dns.tsv", ".dns.log")
	if err != nil {
		return err
	}
	for _, path := range files {
		if err := s.streamFile(path, func(f *os.File) error {
			sub := ScannerSource{dns: f, policy: s.policy, workers: s.workers}
			return sub.StreamDNS(yield)
		}); err != nil {
			return err
		}
	}
	return nil
}

// StreamConns implements Source.
func (s *DirSource) StreamConns(yield func(*ConnRecord) error) error {
	files, err := s.partitionFiles(".conn.tsv", ".conn.log")
	if err != nil {
		return err
	}
	for _, path := range files {
		if err := s.streamFile(path, func(f *os.File) error {
			sub := ScannerSource{conns: f, policy: s.policy, workers: s.workers}
			return sub.StreamConns(yield)
		}); err != nil {
			return err
		}
	}
	return nil
}

// streamFile opens path, hands it to scan, and annotates any error with
// the file name, since a multi-file stream would otherwise report bare
// line numbers.
func (s *DirSource) streamFile(path string, scan func(*os.File) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := scan(f); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
