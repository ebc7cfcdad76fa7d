package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"time"

	"dnscontext/internal/bulk"
	"dnscontext/internal/chaos"
	"dnscontext/internal/dnsserver"
	"dnscontext/internal/dnswire"
	"dnscontext/internal/obs"
	"dnscontext/internal/stats"
	"dnscontext/internal/trace"
	"dnscontext/internal/zonedb"
)

// simRunner runs scan-sim: a feed file through the simulated backend,
// as dnsscan runs it by default, counting into a metrics registry as
// dnsscan does.
type simRunner struct {
	cfg               bulk.SimConfig
	feedPath, outPath string
	n                 int
	reg               *obs.Registry

	sum     *bulk.Summary // last pass
	checked bool
	want    simOutcome // the first pass's
}

// simOutcome is what every simulated pass must reproduce exactly.
type simOutcome struct {
	digest   uint64
	p50, p99 float64
}

func setupSim(e env) (runner, map[string]float64, error) {
	r := &simRunner{
		cfg:      bulk.SimConfig{Shards: 64, Seed: e.seed, ArrivalQPS: 50000},
		feedPath: filepath.Join(e.dir, "feed.txt"),
		outPath:  filepath.Join(e.dir, "scan.jsonl"),
		n:        e.sz.simNames,
		reg:      obs.NewRegistry(),
	}
	// The feed samples the namespace of the backend it will be scanned
	// through; every pass builds its own identical backend.
	be, err := bulk.NewSimBackend(r.cfg)
	if err != nil {
		return nil, nil, err
	}
	src := bulk.NewSyntheticSource(be.Zones(), bulk.SyntheticConfig{N: r.n, Seed: e.seed + 1, MissFraction: 0.01})
	if _, err := writeFeed(r.feedPath, src, false); err != nil {
		return nil, nil, err
	}
	return r, nil, nil
}

func (r *simRunner) items() int { return r.n }

func (r *simRunner) pass(sl *spanLog) (*passResult, error) {
	start := time.Now()
	be, err := bulk.NewSimBackend(r.cfg)
	if err != nil {
		return nil, err
	}
	built := time.Now()
	sl.add("bulk.backend_build", 0, start, built)
	sc, err := openScan(r.feedPath, r.outPath, sl)
	if err != nil {
		return nil, err
	}
	runID := sl.push("bulk.run", built)
	sum, err := bulk.RunSim(context.Background(), sc.src, be, bulk.Options{Concurrency: loadProcs, Metrics: r.reg, Output: sc.out})
	ran := time.Now()
	sl.pop(runID, ran)
	if err = sc.close(err); err != nil {
		return nil, err
	}
	r.sum = sum
	res := &passResult{e2e: map[string]float64{"error_frac": errorFrac(sum)}}
	if sl != nil {
		res.layers = sc.layers(sum, ran.Sub(built))
		res.layers["bulk.backend_build_s"] = built.Sub(start).Seconds()
		res.layers["resolver.cache_hit_frac"] = be.HitRate()
	}
	return res, nil
}

func (r *simRunner) check() error {
	if r.sum.Queries != uint64(r.n) {
		return fmt.Errorf("scan answered %d queries, the feed has %d", r.sum.Queries, r.n)
	}
	digest, err := sortedJSONLDigest(r.outPath, r.n)
	if err != nil {
		return err
	}
	got := simOutcome{digest: digest, p50: r.sum.LatP50, p99: r.sum.LatP99}
	if !r.checked {
		r.want, r.checked = got, true
	} else if got != r.want {
		return fmt.Errorf("simulated scan not reproduced: digest %016x p50 %g p99 %g, the first pass gave %016x %g %g",
			got.digest, got.p50, got.p99, r.want.digest, r.want.p50, r.want.p99)
	}
	return nil
}

func (r *simRunner) close() error { return nil }

// liveRunner runs scan-live and, through a lossy proxy, scan-loss: a
// feed file over loopback UDP to an in-process server, as dnsscan
// -backend udp runs it. As in dnsscan, the engine, the pool and the
// proxy count into one metrics registry on every pass; traced passes
// read the pool's counters from it.
type liveRunner struct {
	zones             *zonedb.DB
	names             []string // the feed, by index
	feedPath, outPath string

	srv   *dnsserver.Server
	proxy *chaos.Proxy // scan-loss only
	pool  *dnsserver.ClientPool
	reg   *obs.Registry

	sum *bulk.Summary // last pass
}

func setupLive(e env, loss bool) (_ runner, _ map[string]float64, err error) {
	r := &liveRunner{
		feedPath: filepath.Join(e.dir, "feed.txt"),
		outPath:  filepath.Join(e.dir, "scan.jsonl"),
		reg:      obs.NewRegistry(),
	}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	r.zones, err = zonedb.New(zonedb.Config{
		NumNames: e.sz.zoneNames, ZipfExponent: 1, CDNFraction: 0.3, CDNPoolSize: 5,
	}, stats.NewRNG(e.seed))
	if err != nil {
		return nil, nil, err
	}
	src := bulk.NewSyntheticSource(r.zones, bulk.SyntheticConfig{N: e.sz.liveNames, Seed: e.seed + 1, MissFraction: 0.01})
	if r.names, err = writeFeed(r.feedPath, src, true); err != nil {
		return nil, nil, err
	}
	r.srv = dnsserver.NewServerWith(dnsserver.ZoneHandler(r.zones), dnsserver.Config{Workers: loadProcs, QueueDepth: 4096}, nil)
	addr, err := r.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	upstream := addr.String()
	// dnsscan's retry ladder: fixed 2 s attempts, 2 retries. The 2
	// sockets are the benchmark's load shape; dnsscan dials 8.
	poolCfg := dnsserver.ClientPoolConfig{Sockets: loadSockets, Timeout: 2 * time.Second, Retries: 2, Backoff: 1.5, Metrics: r.reg}
	if loss {
		r.proxy, err = chaos.NewUDP(chaos.Config{
			Upstream: upstream,
			Profile:  chaos.Profile{Loss: 0.02, Jitter: 500 * time.Microsecond},
			Seed:     e.seed,
			Metrics:  r.reg,
		})
		if err != nil {
			return nil, nil, err
		}
		upstream = r.proxy.Addr()
		// Five retries rather than three: with three, about one lookup in
		// two million lost every attempt, and the workload's lookups must
		// not fail.
		poolCfg = dnsserver.ClientPoolConfig{
			Sockets: loadSockets, Timeout: 250 * time.Millisecond, Retries: 5, MaxTimeout: time.Second,
			Adaptive: true, Hedge: true, Metrics: r.reg,
		}
	}
	if r.pool, err = dnsserver.NewClientPool(upstream, poolCfg); err != nil {
		return nil, nil, err
	}
	return r, nil, nil
}

func (r *liveRunner) items() int { return len(r.names) }

// poolCounters are the dnsctx_pool_* families a traced pass reads.
var poolCounters = []string{
	"dnsctx_pool_attempts_total", "dnsctx_pool_timeouts_total", "dnsctx_pool_hedges_total",
	"dnsctx_pool_hedge_wins_total", "dnsctx_pool_busy_total", "dnsctx_pool_circuit_open_total",
}

func (r *liveRunner) pass(sl *spanLog) (*passResult, error) {
	srv0 := [3]uint64{r.srv.Queries(), r.srv.Shed(), r.srv.Refused()}
	var px0 chaos.Stats
	if r.proxy != nil {
		px0 = r.proxy.Stats()
	}
	counters0 := readCounters(r.reg)

	sc, err := openScan(r.feedPath, r.outPath, sl)
	if err != nil {
		return nil, err
	}
	var (
		ex          bulk.LiveExchanger = r.pool
		te          *timedExchanger
		stopPoll    func() int64
		inflightMax int64
	)
	if sl != nil {
		te = newTimedExchanger(r.pool, sl)
		ex = te
		stopPoll = pollMax(r.pool.InFlight)
	}
	start := time.Now()
	runID := sl.push("bulk.run", start)
	sum, err := bulk.RunLive(context.Background(), sc.src, ex, bulk.Options{Concurrency: liveInFlight, Metrics: r.reg, Output: sc.out})
	ran := time.Now()
	sl.pop(runID, ran)
	if stopPoll != nil {
		inflightMax = stopPoll()
	}
	if err = sc.close(err); err != nil {
		return nil, err
	}
	r.sum = sum
	failed := failedLookups(sum)
	res := &passResult{
		failed: int(failed),
		e2e: map[string]float64{
			"lookup_p50_ms": sum.LatP50,
			"lookup_p99_ms": sum.LatP99,
			"error_frac":    errorFrac(sum),
		},
	}
	if sl == nil {
		return res, nil
	}

	m := sc.layers(sum, ran.Sub(start))
	calls := float64(te.query.h.count.Load())
	counters1 := readCounters(r.reg)
	delta := func(name string) float64 { return counters1[name] - counters0[name] }
	m["pool.query_calls"] = calls
	m["pool.query_p50_ms"] = ms(te.query.h.quantile(0.50))
	m["pool.query_p99_ms"] = ms(te.query.h.quantile(0.99))
	m["pool.inflight_max"] = float64(inflightMax)
	m["pool.attempts_per_query"] = delta("dnsctx_pool_attempts_total") / calls
	m["pool.timeouts"] = delta("dnsctx_pool_timeouts_total")
	m["pool.hedges"] = delta("dnsctx_pool_hedges_total")
	m["pool.hedge_win_frac"] = 0
	if h := delta("dnsctx_pool_hedges_total"); h > 0 {
		m["pool.hedge_win_frac"] = delta("dnsctx_pool_hedge_wins_total") / h
	}
	m["pool.busy"] = delta("dnsctx_pool_busy_total")
	m["pool.circuit_open"] = delta("dnsctx_pool_circuit_open_total")
	m["server.received"] = float64(r.srv.Queries() - srv0[0])
	m["server.shed"] = float64(r.srv.Shed() - srv0[1])
	m["server.refused"] = float64(r.srv.Refused() - srv0[2])
	if r.proxy != nil {
		px := r.proxy.Stats()
		dropped := float64(px.Dropped - px0.Dropped)
		m["chaos.dropped_frac"] = dropped / (dropped + float64(px.Forwarded-px0.Forwarded))
	}
	res.layers = m
	return res, nil
}

func readCounters(reg *obs.Registry) map[string]float64 {
	out := make(map[string]float64, len(poolCounters))
	for _, fam := range reg.Snapshot().Families {
		for _, name := range poolCounters {
			if fam.Name == name {
				for _, m := range fam.Metrics {
					out[name] += m.Value
				}
			}
		}
	}
	return out
}

func (r *liveRunner) check() error {
	if r.sum.Queries != uint64(len(r.names)) {
		return fmt.Errorf("scan answered %d queries, the feed has %d", r.sum.Queries, len(r.names))
	}
	f, err := os.Open(r.outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	seen := make([]bool, len(r.names))
	br := bufio.NewReaderSize(f, 1<<16)
	for line := 1; ; line++ {
		l, err := br.ReadSlice('\n')
		if err == io.EOF && len(l) == 0 {
			break
		}
		if err != nil {
			return fmt.Errorf("%s line %d: %v", r.outPath, line, err)
		}
		idx, name, status, err := parseResultLine(l)
		if err != nil {
			return fmt.Errorf("%s line %d: %v", r.outPath, line, err)
		}
		if idx >= uint64(len(seen)) || seen[idx] {
			return fmt.Errorf("feed index %d appears twice or out of range", idx)
		}
		seen[idx] = true
		if name != r.names[idx] {
			return fmt.Errorf("feed index %d answered for %q, the feed asked %q", idx, name, r.names[idx])
		}
		inZone := r.zones.Lookup(name) != nil
		switch status {
		case "NOERROR", "NXDOMAIN":
			if inZone != (status == "NOERROR") {
				return fmt.Errorf("%q answered %s; in zone: %v", name, status, inZone)
			}
		case "TIMEOUT", "ERROR", "BUSY", "SERVFAIL":
			// Unanswered: counted as failed, not a mismatch.
		default:
			return fmt.Errorf("%q answered with status %s", name, status)
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("feed index %d has no result", i)
		}
	}
	return nil
}

func (r *liveRunner) close() error {
	var errs []error
	if r.pool != nil {
		errs = append(errs, r.pool.Close())
	}
	if r.proxy != nil {
		errs = append(errs, r.proxy.Close())
	}
	if r.srv != nil {
		errs = append(errs, r.srv.Close())
	}
	return errors.Join(errs...)
}

// scanIO is one pass's feed and JSONL output, decorated on traced passes.
type scanIO struct {
	in, outFile *os.File
	src         bulk.Source
	out         io.Writer
	feed        *timedFeed
	write       *timedWriter
}

func openScan(feedPath, outPath string, sl *spanLog) (*scanIO, error) {
	in, err := os.Open(feedPath)
	if err != nil {
		return nil, err
	}
	outFile, err := os.Create(outPath)
	if err != nil {
		in.Close()
		return nil, err
	}
	s := &scanIO{in: in, outFile: outFile, src: bulk.NewFeed(in, dnswire.TypeA, feedPolicy()), out: outFile}
	if sl != nil {
		s.feed = newTimedFeed(s.src, sl)
		s.src = s.feed
		s.write = newTimedWriter(outFile, "bulk.output.write", sl)
		s.out = s.write
	}
	return s, nil
}

// close releases the files, keeping the run's error first.
func (s *scanIO) close(runErr error) error {
	s.in.Close()
	if err := s.outFile.Close(); runErr == nil {
		runErr = err
	}
	return runErr
}

// layers reports the bulk engine's layer metrics of a traced pass.
func (s *scanIO) layers(sum *bulk.Summary, run time.Duration) map[string]float64 {
	feed, write := s.feed.scan.h.sum().Seconds(), s.write.write.h.sum().Seconds()
	bytes := float64(s.write.bytes.Load())
	return map[string]float64{
		"bulk.run_s":          run.Seconds(),
		"bulk.feed_s":         feed,
		"bulk.feed_wait_s":    s.feed.wait.Seconds(),
		"bulk.output_write_s": write,
		"bulk.output_bytes":   bytes,
		"bulk.coalesced_frac": float64(sum.Coalesced) / float64(sum.Queries),
		"stage.input_s":       feed,
		"stage.engine_s":      run.Seconds(),
		"stage.output_s":      write,
		"stage.output_bytes":  bytes,
	}
}

// feedPolicy is dnsscan's: quarantine malformed lines, never abort.
func feedPolicy() trace.ErrorPolicy {
	return trace.ErrorPolicy{Quarantine: true, Budget: trace.UnlimitedBudget()}
}

// writeFeed writes src as a name-per-line feed file, returning the names
// when keep is set.
func writeFeed(path string, src bulk.Source, keep bool) ([]string, error) {
	var names []string
	err := writeFile(path, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		for src.Scan() {
			name := src.Query().Name
			if keep {
				names = append(names, name)
			}
			bw.WriteString(name)
			bw.WriteByte('\n')
		}
		return bw.Flush()
	})
	return names, err
}

// failedLookups counts the lookups that ended without an answer.
func failedLookups(s *bulk.Summary) uint64 {
	return s.Count(bulk.StatusTimeout) + s.Count(bulk.StatusError) + s.Count(bulk.StatusBusy) + s.Count(bulk.StatusServFail)
}

func errorFrac(s *bulk.Summary) float64 {
	return float64(failedLookups(s)) / float64(s.Queries)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sortedJSONLDigest is the FNV-64a digest of a scan's JSONL output,
// which must hold indices 0..n-1 in order.
func sortedJSONLDigest(path string, n int) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := fnv.New64a()
	br := bufio.NewReaderSize(f, 1<<16)
	want := uint64(0)
	for ; ; want++ {
		l, err := br.ReadSlice('\n')
		if err == io.EOF && len(l) == 0 {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("%s line %d: %v", path, want+1, err)
		}
		idx, _, _, err := parseResultLine(l)
		if err != nil {
			return 0, fmt.Errorf("%s line %d: %v", path, want+1, err)
		}
		if idx != want {
			return 0, fmt.Errorf("%s line %d holds index %d, want %d", path, want+1, idx, want)
		}
		h.Write(l)
	}
	if want != uint64(n) {
		return 0, fmt.Errorf("%s has %d lines, want %d", path, want, n)
	}
	return h.Sum64(), nil
}

// parseResultLine extracts the index, name and status of one JSONL
// result line ({"i":N,"name":"...","type":"...","status":"...",...}).
func parseResultLine(l []byte) (idx uint64, name, status string, err error) {
	rest, ok := bytes.CutPrefix(l, []byte(`{"i":`))
	if !ok {
		return 0, "", "", fmt.Errorf("not a result line: %.60q", l)
	}
	i := 0
	for ; i < len(rest) && rest[i] >= '0' && rest[i] <= '9'; i++ {
		idx = idx*10 + uint64(rest[i]-'0')
	}
	if i == 0 {
		return 0, "", "", fmt.Errorf("result line without an index: %.60q", l)
	}
	if name, rest, ok = stringField(rest[i:], `,"name":"`); !ok {
		return 0, "", "", fmt.Errorf("result line without a name: %.60q", l)
	}
	if _, rest, ok = stringField(rest, `,"type":"`); !ok {
		return 0, "", "", fmt.Errorf("result line without a type: %.60q", l)
	}
	if status, _, ok = stringField(rest, `,"status":"`); !ok {
		return 0, "", "", fmt.Errorf("result line without a status: %.60q", l)
	}
	return idx, name, status, nil
}

// stringField reads `prefix` then a string up to the closing quote.
func stringField(b []byte, prefix string) (string, []byte, bool) {
	rest, ok := bytes.CutPrefix(b, []byte(prefix))
	i := bytes.IndexByte(rest, '"')
	if !ok || i < 0 {
		return "", b, false
	}
	return string(rest[:i]), rest[i+1:], true
}
