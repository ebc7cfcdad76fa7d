package dnscontext

// BenchmarkAnalyzeStream measures the out-of-core analyzer: fed from
// on-disk TSV partitions, whole-trace ingestion versus a memory budget
// ~1/16th of the trace's resident footprint (so the spill path carries
// >90% of the records). Each variant reports throughput and a sampled
// peak_heap_bytes. The streamed run trades throughput for a peak heap
// that scales with the budget instead of the trace; both produce the
// identical digest. The report-tsv and report-spill workloads of
// `bash bench/run.sh` time the same two paths end to end; this
// benchmark is where their CPU and allocation profiles come from
// (`go test -bench=AnalyzeStream -cpuprofile=…`).

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// streamBenchState materializes the bench trace as the TSV files a
// capture pipeline would hand the analyzer, four time partitions per
// stream as the report workloads of `bash bench/run.sh` write it, then
// lets the in-memory dataset go, so each variant's heap holds only what
// its ingestion strategy retains.
var streamBenchState struct {
	once     sync.Once
	dir      string
	records  int
	resident int64
	digest   uint64
	err      error
}

// TestMain removes the stream benchmark's trace directory once the
// package's tests and benchmarks have run: the trace is written once per
// process and shared by every variant, so no one benchmark can remove
// it, and each run would otherwise leave its 52 MB in the temp dir.
func TestMain(m *testing.M) {
	code := m.Run()
	if dir := streamBenchState.dir; dir != "" {
		os.RemoveAll(dir)
	}
	os.Exit(code)
}

func streamBenchTrace(b *testing.B) (dir string, records int, resident int64, digest uint64) {
	b.Helper()
	s := &streamBenchState
	s.once.Do(func() {
		cfg := DefaultGeneratorConfig()
		cfg.Houses = 100
		cfg.Duration = 24 * time.Hour
		ds, _, err := Generate(cfg)
		if err != nil {
			s.err = err
			return
		}
		s.records = len(ds.DNS) + len(ds.Conns)
		s.resident = residentBytes(ds)
		if s.dir, err = os.MkdirTemp("", "dnsctx-bench-trace-*"); err != nil {
			s.err = err
			return
		}
		if s.err = writeTimePartitions(s.dir, ds, 4); s.err != nil {
			return
		}
		// The digest both variants must reproduce, computed from the
		// serialized trace (TSV timestamps are microsecond-grained).
		a, err := NewAnalyzer().AnalyzeSource(context.Background(),
			NewDirSource(s.dir, StrictPolicy()))
		if err != nil {
			s.err = err
			return
		}
		s.digest = a.Digest()
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.dir, s.records, s.resident, s.digest
}

// writeTimePartitions writes ds as `parts` equal time slices,
// part-N.dns.tsv and part-N.conn.tsv, so a DirSource over dir streams
// it in time order.
func writeTimePartitions(dir string, ds *Dataset, parts int) error {
	ds.SortByTime()
	var window time.Duration
	if n := len(ds.DNS); n > 0 {
		window = ds.DNS[n-1].TS
	}
	if n := len(ds.Conns); n > 0 {
		window = max(window, ds.Conns[n-1].TS)
	}
	write := func(name string, fn func(*os.File) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	var dnsAt, connAt int
	for p := 0; p < parts; p++ {
		dnsEnd, connEnd := len(ds.DNS), len(ds.Conns)
		if p < parts-1 {
			end := window * time.Duration(p+1) / time.Duration(parts)
			dnsEnd = dnsAt + sort.Search(dnsEnd-dnsAt, func(i int) bool { return ds.DNS[dnsAt+i].TS >= end })
			connEnd = connAt + sort.Search(connEnd-connAt, func(i int) bool { return ds.Conns[connAt+i].TS >= end })
		}
		dns, conns := ds.DNS[dnsAt:dnsEnd], ds.Conns[connAt:connEnd]
		if err := write(fmt.Sprintf("part-%03d.dns.tsv", p), func(f *os.File) error { return WriteDNS(f, dns) }); err != nil {
			return err
		}
		if err := write(fmt.Sprintf("part-%03d.conn.tsv", p), func(f *os.File) error { return WriteConns(f, conns) }); err != nil {
			return err
		}
		dnsAt, connAt = dnsEnd, connEnd
	}
	return nil
}

// residentBytes mirrors the analyzer's retained-bytes accounting — 56 B
// per DNS record, 16 B per answer and 48 B per connection in the record
// store's compact form, table entries left out — closely enough to
// size a budget that forces spilling.
func residentBytes(ds *Dataset) int64 {
	var n int64
	for i := range ds.DNS {
		n += 56 + 16*int64(len(ds.DNS[i].Answers))
	}
	n += 48 * int64(len(ds.Conns))
	return n
}

// heapSampler polls the live heap objects' bytes while a benchmark
// body runs and records the high-water mark. It reads the same
// runtime/metrics sample as the repository benchmark's peak_heap_mb
// (bench/host.go), which unlike runtime.ReadMemStats does not stop the
// world.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > s.peak.Load() {
				s.peak.Store(v)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *heapSampler) peakBytes() uint64 {
	close(s.stop)
	<-s.done
	return s.peak.Load()
}

func BenchmarkAnalyzeStream(b *testing.B) {
	dir, records, resident, digest := streamBenchTrace(b)
	variants := []struct {
		name   string
		budget int64
	}{
		{"inmemory", 0},
		{"budget=1/16", resident / 16},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			an := NewAnalyzer(WithMemoryBudget(v.budget))
			src := NewDirSource(dir, StrictPolicy())
			var a *Analysis
			runtime.GC()
			sampler := startHeapSampler()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				var err error
				a, err = an.AnalyzeSource(context.Background(), src)
				if err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(start)
			peak := sampler.peakBytes()
			if a.Digest() != digest {
				b.Fatalf("digest %#016x, want %#016x", a.Digest(), digest)
			}
			b.ReportMetric(float64(peak), "peak_heap_bytes")
			b.ReportMetric(float64(records)*float64(b.N)/elapsed.Seconds(), "records_per_sec")
			if v.budget > 0 {
				b.ReportMetric(float64(resident)/float64(v.budget), "trace_to_budget_x")
			}
		})
	}
}
