package main

import (
	"hash/fnv"
	"io"
	"os"
	"time"
)

// Load shape. The reference host has 2 CPUs, so the load comes from one
// process capped at 2 threads and 2 sockets: GOMAXPROCS, the analysis
// workers (ingest inherits them), the simulated scan's concurrency and
// the in-process server's workers are all loadProcs, and the live
// client pool dials loadSockets sockets. Every workload is a closed
// loop: one report job at a time, or a fixed window of in-flight
// lookups.
const (
	loadProcs    = 2
	loadSockets  = 2
	liveInFlight = 512
)

// sizes fixes how much input a workload generates.
type sizes struct {
	houses    int           // report-*: households simulated
	window    time.Duration // report-*: capture window simulated
	records   int           // report-*: earliest records kept
	simNames  int           // scan-sim: feed lines
	liveNames int           // scan-live, scan-loss: feed lines
	zoneNames int           // scan-live, scan-loss: namespace served
}

// The report workloads keep a fixed number of records: a seed's trace
// varies ±16% in size (50 houses × 24 h held 296k to 410k records over
// seeds 1..10), and the cost and heap of a pass with it.
var (
	fullSizes  = sizes{houses: 60, window: 24 * time.Hour, records: 300_000, simNames: 1_000_000, liveNames: 200_000, zoneNames: 2000}
	smokeSizes = sizes{houses: 3, window: 2 * time.Hour, records: 1000, simNames: 5000, liveNames: 2000, zoneNames: 200}
)

// env is what a workload's setup gets: a private scratch directory, the
// seed every generated input derives from, and the input sizes.
type env struct {
	dir  string
	seed uint64
	sz   sizes
}

// runner is a set-up workload, ready for passes.
type runner interface {
	// items is the work one pass completes: trace records or lookups.
	items() int
	// pass runs one pass. sl is nil on untraced passes; on traced ones
	// the runner wraps its layers in decorators and reports them.
	pass(sl *spanLog) (*passResult, error)
	// check verifies the output of the pass just run. The first pass
	// (the warm-up) fixes the values later passes must reproduce.
	check() error
	close() error
}

// passResult is what a pass reports beyond its wall and CPU time.
type passResult struct {
	e2e    map[string]float64 // workload-specific end-to-end values
	layers map[string]float64 // traced passes only
	failed int                // lookups that ended in an error status
}

type workload struct {
	name  string
	why   string
	setup func(env) (runner, map[string]float64, error)
}

// workloads is the benchmark; BENCHMARK.json lists the same names and
// reasons. Each analysis workload has a twin on the other side of the
// memory budget, and each live scan a twin with and without the
// reliability machinery, so a change to one mechanism shows on one
// workload and must not move its twin.
var workloads = []workload{
	{"report-tsv", "The paper's analysis on the path users run: a partitioned TSV trace streamed, classified in memory and rendered to a report; ingest, classify and render bound",
		func(e env) (runner, map[string]float64, error) { return setupReport(e, false) }},
	{"report-spill", "Same trace under a memory budget of 1/16 of its resident size, so over 90% of records go through spill writes and partition reads; the allocation-heavy path",
		func(e env) (runner, map[string]float64, error) { return setupReport(e, true) }},
	{"scan-sim", "A 1M-name feed through the default simulated scanner backend to JSONL; CPU-bound in feed parsing, engine, resolver model and encoder, about half coalesced",
		setupSim},
	{"scan-live", "A 200k-name feed, 512 in flight on 2 sockets, over loopback UDP to an in-process server with dnsscan's fixed retry ladder; per-lookup cost of engine, pool demux, kernel and server",
		func(e env) (runner, map[string]float64, error) { return setupLive(e, false) }},
	{"scan-loss", "Same feed through a seeded 2% loss proxy with adaptive timeouts and hedging; retries, hedges and timeouts set the tail, so reliability changes show here",
		func(e env) (runner, map[string]float64, error) { return setupLive(e, true) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func fileFNV(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	h := fnv.New64a()
	if _, err := io.Copy(h, f); err != nil {
		return 0, err
	}
	return h.Sum64(), nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readFile[T any](path string, read func(io.Reader) ([]T, error)) ([]T, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return read(f)
}
