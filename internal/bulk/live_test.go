package bulk

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dnscontext/internal/dnsserver"
	"dnscontext/internal/dnswire"
	"dnscontext/internal/obs"
	"dnscontext/internal/stats"
	"dnscontext/internal/zonedb"
)

// startLiveServer boots an in-process dnsserver over real loopback UDP
// for the live-path tests.
func startLiveServer(t *testing.T) (*zonedb.DB, string) {
	t.Helper()
	zones, err := zonedb.New(zonedb.Config{
		NumNames: 200, ZipfExponent: 1, CDNFraction: 0.3, CDNPoolSize: 5,
	}, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	srv := dnsserver.NewServerWith(dnsserver.ZoneHandler(zones), dnsserver.Config{Workers: 8, QueueDepth: 4096}, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Skipf("cannot bind loopback UDP: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return zones, addr.String()
}

// TestRunLiveAgainstServer drives a real scan — synthetic feed, client
// pool, loopback wire — and checks the stream, the summary, and that the
// run leaves nothing behind: no goroutines beyond baseline, no queries
// in flight.
func TestRunLiveAgainstServer(t *testing.T) {
	zones, addr := startLiveServer(t)
	baseline := runtime.NumGoroutine()

	pool, err := dnsserver.NewClientPool(addr, dnsserver.ClientPoolConfig{
		Sockets: 4, Timeout: 2 * time.Second, Retries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 5000
	src := NewSyntheticSource(zones, SyntheticConfig{N: n, Seed: 3, MissFraction: 0.05})
	var buf bytes.Buffer
	sum, err := RunLive(context.Background(), src, pool, Options{Concurrency: 256, Output: &buf})
	if err != nil {
		t.Fatal(err)
	}

	if sum.Queries != n {
		t.Fatalf("queries = %d, want %d", sum.Queries, n)
	}
	if got := strings.Count(buf.String(), "\n"); got != n {
		t.Fatalf("output lines = %d, want %d", got, n)
	}
	// A loopback scan must be essentially clean: every query answered,
	// misses as NXDOMAIN, no timeouts eaten silently.
	if sum.Count(StatusNoError) == 0 || sum.Count(StatusNXDomain) == 0 {
		t.Fatalf("status breakdown %+v", sum.ByStatus)
	}
	if bad := sum.Count(StatusError); bad != 0 {
		t.Fatalf("%d transport errors on loopback", bad)
	}
	if sum.Count(StatusNoError)+sum.Count(StatusNXDomain)+sum.Count(StatusTimeout) != n {
		t.Fatalf("status breakdown %+v", sum.ByStatus)
	}

	if got := pool.InFlight(); got != 0 {
		t.Fatalf("pool in-flight after run = %d, want 0", got)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	// Engine workers and pool readers must all be gone.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines %d, baseline %d — the run leaked", runtime.NumGoroutine(), baseline)
}

// BenchmarkBulkScanLive measures the live path end to end: synthetic
// feed → client pool → loopback UDP → in-process dnsserver. It runs
// scan-live's load shape — 2 server workers, 2 client sockets with
// dnsscan's retry ladder, 512 lookups in flight, a metrics registry and
// a discarded output — so that `make profile-live` profiles the mix the
// benchmark of record (`bash bench/run.sh --workload scan-live`)
// measures.
func BenchmarkBulkScanLive(b *testing.B) {
	zones, err := zonedb.New(zonedb.Config{
		NumNames: 2000, ZipfExponent: 1, CDNFraction: 0.3, CDNPoolSize: 5,
	}, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	srv := dnsserver.NewServerWith(dnsserver.ZoneHandler(zones), dnsserver.Config{Workers: 2, QueueDepth: 4096}, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Skipf("cannot bind loopback UDP: %v", err)
	}
	defer srv.Close()
	reg := obs.NewRegistry()
	pool, err := dnsserver.NewClientPool(addr.String(), dnsserver.ClientPoolConfig{
		Sockets: 2, Timeout: 2 * time.Second, Retries: 2, Backoff: 1.5, Metrics: reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()

	const n = 200_000
	b.ReportAllocs()
	b.ResetTimer()
	var sum *Summary
	for i := 0; i < b.N; i++ {
		src := NewSyntheticSource(zones, SyntheticConfig{N: n, Seed: 2, MissFraction: 0.01})
		sum, err = RunLive(context.Background(), src, pool, Options{Concurrency: 512, Metrics: reg, Output: io.Discard})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(sum.QPS, "qps")
	b.ReportMetric(sum.LatP50, "p50_ms")
	b.ReportMetric(sum.LatP99, "p99_ms")
	b.ReportMetric(float64(sum.Count(StatusTimeout)), "timeouts")
	if sum.Queries != n {
		b.Fatalf("queries = %d, want %d", sum.Queries, n)
	}
}

// errWriter is a sticky output failure — every write fails, like -o on a
// full disk.
type errWriter struct{}

func (errWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

// okExchanger answers every query instantly without a network.
type okExchanger struct{}

func (okExchanger) Query(ctx context.Context, name string, qtype dnswire.Type) (*dnswire.Message, error) {
	return &dnswire.Message{}, nil
}

// endlessSource yields queries forever; only the engine can stop the
// feed.
type endlessSource struct{ n int }

func (s *endlessSource) Scan() bool { s.n++; return true }
func (s *endlessSource) Query() Query {
	return Query{Name: fmt.Sprintf("q%d.example", s.n), Type: dnswire.TypeA}
}
func (s *endlessSource) Err() error { return nil }

// TestRunLiveWriteErrorStopsRun: a persistent output failure must abort
// the run with the write error, not deadlock the feeder against workers
// that stopped draining (the output is buffered, so the error surfaces
// only once the 64K buffer fills — well into the endless feed).
func TestRunLiveWriteErrorStopsRun(t *testing.T) {
	var (
		sum *Summary
		err error
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sum, err = RunLive(context.Background(), &endlessSource{}, okExchanger{}, Options{Concurrency: 8, Output: errWriter{}})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RunLive deadlocked on a sticky write error")
	}
	if sum != nil || err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("sum=%v err=%v, want the write error", sum, err)
	}
}

// TestRunLiveCancel: cancelling the run context stops the engine
// promptly with the context's error.
func TestRunLiveCancel(t *testing.T) {
	zones, addr := startLiveServer(t)
	pool, err := dnsserver.NewClientPool(addr, dnsserver.ClientPoolConfig{Sockets: 2, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	ctx, cancel := context.WithCancel(context.Background())
	src := NewSyntheticSource(zones, SyntheticConfig{N: 1 << 30, Seed: 3})
	done := make(chan error, 1)
	go func() {
		_, err := RunLive(ctx, src, pool, Options{Concurrency: 64})
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("engine did not stop after cancel")
	}
}

// busyExchanger rejects a prefix of queries with ErrPoolBusy — the
// client-side ID-space exhaustion path — then answers normally.
type busyExchanger struct{ busy atomic.Int64 }

func (b *busyExchanger) Query(ctx context.Context, name string, qtype dnswire.Type) (*dnswire.Message, error) {
	if b.busy.Add(-1) >= 0 {
		return nil, dnsserver.ErrPoolBusy
	}
	return &dnswire.Message{}, nil
}

// finiteSource yields n distinct queries, then stops.
type finiteSource struct{ n, i int }

func (s *finiteSource) Scan() bool { s.i++; return s.i <= s.n }
func (s *finiteSource) Query() Query {
	return Query{Name: fmt.Sprintf("q%d.example", s.i), Type: dnswire.TypeA}
}
func (s *finiteSource) Err() error { return nil }

// TestRunLiveBusyStatus: ErrPoolBusy must surface as its own BUSY
// status — distinct from ERROR, so an operator can tell "we couldn't
// even ask" from transport failure — in both the JSONL stream and the
// summary.
func TestRunLiveBusyStatus(t *testing.T) {
	const n, busy = 200, 37
	ex := &busyExchanger{}
	ex.busy.Store(busy)
	var buf bytes.Buffer
	sum, err := RunLive(context.Background(), &finiteSource{n: n}, ex, Options{Concurrency: 4, Output: &buf, NoCoalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Queries != n {
		t.Fatalf("queries = %d, want %d", sum.Queries, n)
	}
	if got := sum.Count(StatusBusy); got != busy {
		t.Fatalf("BUSY count = %d, want %d (%+v)", got, busy, sum.ByStatus)
	}
	if sum.Count(StatusError) != 0 {
		t.Fatalf("busy rejections leaked into ERROR: %+v", sum.ByStatus)
	}
	if got := strings.Count(buf.String(), `"status":"BUSY"`); got != busy {
		t.Fatalf("BUSY lines = %d, want %d", got, busy)
	}
}
