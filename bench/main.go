// Command bench is the repository benchmark: five seeded workloads that
// cover both halves of the system, the paper's analysis (a partitioned
// TSV trace to a report) and the bulk scanner (a name feed to JSONL).
// Each is measured end to end over repeated passes and, in a traced run,
// layer by layer, and every pass's output is checked. README.md lists
// the commands, the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run only this workload, in this process; empty runs every workload, each in a child process")
		seed     = fs.Uint64("seed", 1, "seed of every generated input")
		seconds  = fs.Float64("seconds", 15, "measuring time per workload; a traced run splits it between untraced and traced passes")
		traceArg = fs.Int("trace", 0, "1 also runs traced passes and reports the per-layer metrics")
		out      = fs.String("o", "", "write the run's JSON record to this file")
		spansOut = fs.String("spans", "", "write the traced passes' spans as JSON to this file (with -trace 1)")
		compare  = fs.Bool("compare", false, "compare two records: -compare A.json B.json")
		smoke    = fs.Bool("smoke", false, "tiny inputs and the minimum number of passes: exercises the harness, measures nothing")
		workdir  = fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory for generated inputs and outputs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two record files")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *traceArg != 0 && *traceArg != 1 {
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1")
		return 2
	}
	if *spansOut != "" && *traceArg != 1 {
		fmt.Fprintln(stderr, "bench: -spans needs -trace 1")
		return 2
	}
	cfg := runConfig{
		seed: *seed, seconds: *seconds, trace: *traceArg == 1, sz: fullSizes, workdir: *workdir,
		setupSample: 500 * time.Millisecond, setupTime: 3 * time.Second,
	}
	if *smoke {
		cfg.sz, cfg.seconds, cfg.setupSample, cfg.setupTime = smokeSizes, 0, 0, 0
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	runtime.GOMAXPROCS(loadProcs)
	rec := &record{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace, Smoke: *smoke,
	}

	if *name == "" {
		return runAll(rec, cfg, *out, *spansOut, stdout, stderr)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	wr, spans, err := runWorkload(w, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	rec.Workloads = []*workloadRecord{wr}
	printWorkload(stdout, wr, cfg.trace)
	if err := writeOutputs(rec, spans, *out, *spansOut); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	line, err := resultLine(wr, cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !wr.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, one at a time,
// so no workload's heap, sockets or goroutines leak into the next.
func runAll(rec *record, cfg runConfig, out, spansOut string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(cfg.workdir, "all-")
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	var allSpans []span
	var failed []string
	for _, w := range workloads {
		recPath := filepath.Join(tmp, w.name+".json")
		spanPath := filepath.Join(tmp, w.name+".spans.json")
		args := []string{
			"-workload", w.name, "-seed", strconv.FormatUint(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
			"-workdir", cfg.workdir, "-o", recPath,
		}
		if cfg.trace {
			args = append(args, "-trace", "1", "-spans", spanPath)
		}
		if rec.Smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s (%v)", w.name, err))
		}
		var child record
		if err := readJSON(recPath, &child); err != nil {
			continue // the child failed before writing its record
		}
		rec.Workloads = append(rec.Workloads, child.Workloads...)
		if cfg.trace {
			var spans []span
			if err := readJSON(spanPath, &spans); err == nil {
				allSpans = append(allSpans, spans...)
			}
		}
	}
	if err := writeOutputs(rec, allSpans, out, spansOut); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if len(failed) > 0 {
		fmt.Fprintf(stderr, "bench: failed workloads: %v\n", failed)
		return 1
	}
	fmt.Fprintf(stdout, "bench: %d workloads, every pass's output checked and correct\n", len(rec.Workloads))
	return 0
}

// resultLine is the run's one-line verdict: correctness, operations
// attempted and failed, and the medians of the end-to-end metrics, or
// with tracing of the per-layer metrics, that BENCHMARK.json lists.
func resultLine(wr *workloadRecord, traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, got := endToEnd, wr.EndToEnd
	if traced {
		defs, got = perLayer, wr.Layers
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{Value: got[d.Name].Median, Unit: d.unit()}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, metrics})
}

// printWorkload prints every end-to-end metric, and for a traced run
// every layer metric, with its unit, median, quartiles, range and n.
func printWorkload(w io.Writer, wr *workloadRecord, traced bool) {
	verdict := "every pass's output correct"
	if !wr.Correct {
		verdict = fmt.Sprintf("OUTPUT CHECK FAILED: %v", wr.Errors)
	}
	fmt.Fprintf(w, "== %s: %d passes", wr.Name, wr.Passes)
	if traced {
		fmt.Fprintf(w, " + %d traced", wr.TracedPasses)
	}
	fmt.Fprintf(w, ", %d items each, host steal %.1f%%, %s\n", wr.ItemsPerPass, 100*wr.StealFrac, verdict)
	fmt.Fprintf(w, "%-32s %-9s %12s %12s %12s %12s %12s %4s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "n")
	row := func(name string, s summary) {
		fmt.Fprintf(w, "%-32s %-9s %12.5g %12.5g %12.5g %12.5g %12.5g %4d\n", name, s.Unit, s.Median, s.Q1, s.Q3, s.Min, s.Max, s.N)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), scanEndToEnd...) {
		if s, ok := wr.EndToEnd[d.Name]; ok {
			row(d.Name, s)
		}
	}
	if !traced {
		return
	}
	names := make([]string, 0, len(wr.Layers))
	for k := range wr.Layers {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "-- layers --")
	for _, k := range names {
		row(k, wr.Layers[k])
	}
}

func writeOutputs(rec *record, spans []span, out, spansOut string) error {
	if out != "" {
		if err := writeJSON(out, rec); err != nil {
			return err
		}
	}
	if spansOut != "" {
		if spans == nil {
			spans = []span{}
		}
		return writeJSON(spansOut, spans)
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
