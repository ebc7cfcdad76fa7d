package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dnscontext"
)

// tracePartitions is how many time partitions the trace is written as,
// the shape a long capture lands in on disk.
const tracePartitions = 4

// reportRunner runs report-tsv and, with a memory budget, report-spill:
// the analysis of a partitioned TSV trace, as dnsctx -stream -trace-dir
// runs it.
type reportRunner struct {
	traceDir, spillDir, outPath string
	budget                      int64 // 0 = unbudgeted, in memory
	records                     int
	profiles                    []dnscontext.PlatformProfile

	refDigest  uint64 // in-memory analysis of the re-read trace
	wantReport uint64 // FNV-64a of the first pass's report
	digest     uint64 // last pass
}

func setupReport(e env, spill bool) (runner, map[string]float64, error) {
	cfg := dnscontext.DefaultGeneratorConfig()
	cfg.Houses = e.sz.houses
	cfg.Duration = e.sz.window
	cfg.Seed = e.seed
	start := time.Now()
	full, eco, err := dnscontext.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	ds, err := earliestRecords(full, e.sz.records)
	if err != nil {
		return nil, nil, err
	}
	generated := time.Now()
	r := &reportRunner{
		traceDir: filepath.Join(e.dir, "trace"),
		outPath:  filepath.Join(e.dir, "report.txt"),
		records:  e.sz.records,
		profiles: eco.Profiles,
	}
	if err := writePartitions(r.traceDir, ds); err != nil {
		return nil, nil, err
	}
	written := time.Now()
	if spill {
		r.budget = residentBytes(ds) / 16
		r.spillDir = filepath.Join(e.dir, "spill")
		if err := os.MkdirAll(r.spillDir, 0o755); err != nil {
			return nil, nil, err
		}
	}
	// The differential reference: the in-memory analysis of the trace as
	// written (TSV timestamps are microsecond-grained, so the generated
	// dataset itself would not match).
	ref, err := readPartitions(r.traceDir)
	if err != nil {
		return nil, nil, err
	}
	r.refDigest = dnscontext.NewAnalyzer(dnscontext.WithWorkers(loadProcs)).Analyze(ref).Digest()
	return r, map[string]float64{
		"households.generate_s": generated.Sub(start).Seconds(),
		"trace.write_s":         written.Sub(generated).Seconds(),
		"core.reference_s":      time.Since(written).Seconds(),
	}, nil
}

// residentBytes approximates the analyzer's retained-bytes accounting
// closely enough to size a budget that forces spilling.
func residentBytes(ds *dnscontext.Dataset) int64 {
	var n int64
	for i := range ds.DNS {
		n += 120 + int64(len(ds.DNS[i].Query)) + 24*int64(len(ds.DNS[i].Answers))
	}
	return n + 80*int64(len(ds.Conns))
}

// earliestRecords keeps the first n records of ds by time, DNS and
// connection records together: the same capture, stopped earlier.
func earliestRecords(ds *dnscontext.Dataset, n int) (*dnscontext.Dataset, error) {
	if have := len(ds.DNS) + len(ds.Conns); have < n {
		return nil, fmt.Errorf("generated trace has %d records, the workload needs %d", have, n)
	}
	ds.SortByTime()
	var d, c int
	for d+c < n {
		if c == len(ds.Conns) || (d < len(ds.DNS) && ds.DNS[d].TS <= ds.Conns[c].TS) {
			d++
		} else {
			c++
		}
	}
	return &dnscontext.Dataset{DNS: ds.DNS[:d], Conns: ds.Conns[:c]}, nil
}

// writePartitions writes the time-sorted ds as tracePartitions equal
// time slices of part-N.dns.tsv / part-N.conn.tsv.
func writePartitions(dir string, ds *dnscontext.Dataset) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var window time.Duration
	if n := len(ds.DNS); n > 0 {
		window = ds.DNS[n-1].TS
	}
	if n := len(ds.Conns); n > 0 {
		window = max(window, ds.Conns[n-1].TS)
	}
	var dnsAt, connAt int
	for p := 0; p < tracePartitions; p++ {
		end := window * time.Duration(p+1) / tracePartitions
		dnsEnd := dnsAt + sort.Search(len(ds.DNS)-dnsAt, func(i int) bool { return ds.DNS[dnsAt+i].TS >= end })
		connEnd := connAt + sort.Search(len(ds.Conns)-connAt, func(i int) bool { return ds.Conns[connAt+i].TS >= end })
		if p == tracePartitions-1 {
			dnsEnd, connEnd = len(ds.DNS), len(ds.Conns)
		}
		dnsPart, connPart := ds.DNS[dnsAt:dnsEnd], ds.Conns[connAt:connEnd]
		if err := writeFile(filepath.Join(dir, fmt.Sprintf("part-%d.dns.tsv", p)), func(w io.Writer) error {
			return dnscontext.WriteDNS(w, dnsPart)
		}); err != nil {
			return err
		}
		if err := writeFile(filepath.Join(dir, fmt.Sprintf("part-%d.conn.tsv", p)), func(w io.Writer) error {
			return dnscontext.WriteConns(w, connPart)
		}); err != nil {
			return err
		}
		dnsAt, connAt = dnsEnd, connEnd
	}
	return nil
}

func readPartitions(dir string) (*dnscontext.Dataset, error) {
	ds := &dnscontext.Dataset{}
	for p := 0; p < tracePartitions; p++ {
		dns, err := readFile(filepath.Join(dir, fmt.Sprintf("part-%d.dns.tsv", p)), dnscontext.ReadDNS)
		if err != nil {
			return nil, err
		}
		conns, err := readFile(filepath.Join(dir, fmt.Sprintf("part-%d.conn.tsv", p)), dnscontext.ReadConns)
		if err != nil {
			return nil, err
		}
		ds.DNS = append(ds.DNS, dns...)
		ds.Conns = append(ds.Conns, conns...)
	}
	return ds, nil
}

func (r *reportRunner) items() int { return r.records }

func (r *reportRunner) pass(sl *spanLog) (*passResult, error) {
	var src dnscontext.Source = dnscontext.NewDirSource(r.traceDir, dnscontext.StrictPolicy())
	opts := []dnscontext.AnalyzerOption{dnscontext.WithWorkers(loadProcs)}
	if r.budget > 0 {
		opts = append(opts, dnscontext.WithMemoryBudget(r.budget), dnscontext.WithSpillDir(r.spillDir))
	}
	var (
		ts *timedTraceSource
		tl *dnscontext.Tracer
	)
	if sl != nil {
		ts = &timedTraceSource{src: src, log: sl}
		src = ts
		tl = dnscontext.NewTracer()
		opts = append(opts, dnscontext.WithTracer(tl))
	}

	start := time.Now()
	analyzeID := sl.push("core.analyze", start)
	a, err := dnscontext.NewAnalyzer(opts...).AnalyzeSource(context.Background(), src)
	analyzed := time.Now()
	sl.pop(analyzeID, analyzed)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(r.outPath)
	if err != nil {
		return nil, err
	}
	var out io.Writer = f
	var tw *timedWriter
	if sl != nil {
		tw = newTimedWriter(f, "report.write", sl)
		out = tw
	}
	err = a.Report(out, r.profiles)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("writing report: %w", err)
	}
	rendered := time.Now()
	r.digest = a.Digest()
	if sl == nil {
		return &passResult{}, nil
	}

	sl.add("report.render", 0, analyzed, rendered)
	analyzeS := analyzed.Sub(start).Seconds()
	renderS := rendered.Sub(analyzed).Seconds()
	stream := ts.dnsCall + ts.connCall
	wait := (stream - ts.dnsYield - ts.connYield).Seconds()
	tline := tl.Timeline()
	m := map[string]float64{
		"core.analyze_s":             analyzeS,
		"core.phase_coverage":        tline.TotalSeconds / analyzeS,
		"report.render_s":            renderS,
		"report.bytes":               float64(tw.bytes.Load()),
		"trace.stream_dns_s":         ts.dnsCall.Seconds(),
		"trace.stream_conns_s":       ts.connCall.Seconds(),
		"trace.wait_s":               wait,
		"trace.ingest_records_per_s": float64(r.records) / stream.Seconds(),
		"stage.input_s":              wait,
		"stage.engine_s":             analyzeS,
		"stage.output_s":             renderS,
		"stage.output_bytes":         float64(tw.bytes.Load()),
	}
	// The tracer reports phase offsets from its first phase, ingest-dns,
	// which opens just before the analyzer's first StreamDNS call.
	for _, p := range tline.Phases {
		m["core.phase."+p.Name+"_s"] += p.Seconds
		at := ts.dnsStart.Add(time.Duration(p.Offset * float64(time.Second)))
		sl.add("core.phase."+p.Name, analyzeID, at, at.Add(time.Duration(p.Seconds*float64(time.Second))))
	}
	if sh := tline.Shards; sh != nil {
		m["core.classify_work_s"] = sh.BusySeconds
		m["core.classify_utilization"] = sh.Utilization
	}
	return &passResult{layers: m}, nil
}

func (r *reportRunner) check() error {
	if r.digest != r.refDigest {
		return fmt.Errorf("analysis digest %016x, the in-memory reference is %016x", r.digest, r.refDigest)
	}
	sum, err := fileFNV(r.outPath)
	if err != nil {
		return err
	}
	if r.wantReport == 0 {
		r.wantReport = sum
	} else if sum != r.wantReport {
		return fmt.Errorf("report bytes hash %016x, the first pass wrote %016x", sum, r.wantReport)
	}
	return nil
}

func (r *reportRunner) close() error { return nil }
