package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// record is one benchmark run, stamped with the conditions it ran under.
type record struct {
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Traced     bool              `json:"traced"`
	Smoke      bool              `json:"smoke,omitempty"`
	Workloads  []*workloadRecord `json:"workloads"`
}

// workloadRecord is one workload's run: end-to-end metrics from the
// untraced passes (plus setup), layer metrics from the traced passes
// (plus the setup layers and the runtime costs of the untraced passes).
type workloadRecord struct {
	Name         string             `json:"name"`
	Correct      bool               `json:"correct"`
	Errors       []string           `json:"errors,omitempty"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	ItemsPerPass int                `json:"items_per_pass"`
	Passes       int                `json:"passes"`
	TracedPasses int                `json:"traced_passes,omitempty"`
	StealFrac    float64            `json:"steal_frac"`
	EndToEnd     map[string]summary `json:"end_to_end"`
	Layers       map[string]summary `json:"layers"`
}

// runConfig is how one workload is run.
type runConfig struct {
	seed    uint64
	seconds float64 // measuring time; a traced run splits it in two
	// setupSample is the least time one setup_s sample measures: a 40 ms
	// setup timed once spans a few scheduler slices of a shared host, so
	// a cheap setup is repeated and its mean taken. Samples are taken
	// until there are minSetups and setupTime has been spent, which
	// gives cheap setups enough samples for quartiles that are not just
	// the range.
	setupSample, setupTime time.Duration
	trace                  bool
	sz                     sizes
	workdir                string
}

const (
	// setup_s is the median of minSetups samples, so work moved into
	// set-up shows without one slow setup deciding it.
	minSetups = 3
	// minPasses keeps quartiles meaningful when a pass outlasts the
	// measuring time.
	minPasses = 3
	// stealWarn is the host CPU steal above which wall-clock metrics are
	// suspect.
	stealWarn = 0.05
)

// samples accumulates per-pass values by metric name.
type samples map[string][]float64

func (s samples) add(m map[string]float64) {
	for k, v := range m {
		s[k] = append(s[k], v)
	}
}

func (s samples) summarize() map[string]summary {
	out := make(map[string]summary, len(s))
	for k, xs := range s {
		out[k] = summarize(unitOf(k), xs)
	}
	return out
}

// runWorkload sets w up, runs a warm-up pass, then timed untraced passes
// and, for a traced run, traced passes. Every pass's output is checked;
// the first mismatch ends the run with Correct false. The returned spans
// are the traced passes'.
func runWorkload(w workload, cfg runConfig, warn io.Writer) (*workloadRecord, []span, error) {
	dir, err := os.MkdirTemp(cfg.workdir, w.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	stat0, statErr := readProcStat()

	e2e, layers := samples{}, samples{}
	var setupSpent time.Duration
	// setUp takes one setup_s sample: it builds the workload in a
	// directory of its own, again until cfg.setupSample has passed, and
	// records the mean time per build. Every build but the last is torn
	// down.
	setUp := func() (runner, string, error) {
		var took time.Duration
		defer func() { setupSpent += took }()
		for n := 1; ; n++ {
			sub, err := os.MkdirTemp(dir, "setup-")
			if err != nil {
				return nil, "", err
			}
			runtime.GC()
			start := time.Now()
			r, setupLayers, err := w.setup(env{dir: sub, seed: cfg.seed, sz: cfg.sz})
			if err != nil {
				return nil, "", fmt.Errorf("%s setup: %w", w.name, err)
			}
			took += time.Since(start)
			layers.add(setupLayers)
			if took >= cfg.setupSample {
				e2e["setup_s"] = append(e2e["setup_s"], took.Seconds()/float64(n))
				return r, sub, nil
			}
			if err := r.close(); err != nil {
				return nil, "", err
			}
			os.RemoveAll(sub)
		}
	}
	// moreSetups takes another setup_s sample, on a throwaway copy, before
	// each of the first timed passes, so the samples come from across the
	// run as the pass samples do. minPasses ≥ minSetups-1, so a run
	// always collects minSetups.
	moreSetups := func() error {
		if len(e2e["setup_s"]) >= minSetups && setupSpent >= cfg.setupTime {
			return nil
		}
		x, sub, err := setUp()
		if err != nil {
			return err
		}
		err = x.close()
		os.RemoveAll(sub)
		return err
	}
	r, _, err := setUp()
	if err != nil {
		return nil, nil, err
	}
	defer r.close()

	rec := &workloadRecord{Name: w.name, Correct: true, ItemsPerPass: r.items()}
	fail := func(err error) {
		rec.Correct = false
		rec.Errors = append(rec.Errors, err.Error())
	}
	// checked accounts one pass: every item was attempted, and a pass
	// whose output check fails counts all its items as failed.
	checked := func(label string, res *passResult) {
		rec.Attempted += r.items()
		if err := r.check(); err != nil {
			fail(fmt.Errorf("%s: %w", label, err))
			rec.Failed += r.items()
		} else {
			rec.Failed += res.failed
		}
	}

	start := time.Now()
	res, err := r.pass(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("%s warm-up pass: %w", w.name, err)
	}
	layers["bench.warmup_s"] = []float64{time.Since(start).Seconds()}
	checked("warm-up pass", res)

	// measure runs passes until they have had the measuring time, and at
	// least minPasses; time spent in before does not count.
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 2
	}
	measure := func(sl *spanLog, before func() error, onPass func(p passMeasure, res *passResult)) error {
		deadline := time.Now().Add(budget)
		for n := 1; rec.Correct && (n <= minPasses || time.Now().Before(deadline)); n++ {
			start := time.Now()
			if err := before(); err != nil {
				return err
			}
			deadline = deadline.Add(time.Since(start))
			p, res, err := measurePass(r, sl, n)
			if err != nil {
				return fmt.Errorf("%s pass %d: %w", w.name, n, err)
			}
			checked(fmt.Sprintf("pass %d", n), res)
			onPass(p, res)
		}
		return nil
	}

	var untracedWall []float64
	err = measure(nil, moreSetups, func(p passMeasure, res *passResult) {
		items := float64(r.items())
		rec.Passes++
		untracedWall = append(untracedWall, p.wall.Seconds())
		e2e.add(map[string]float64{
			"items_per_s":     items / p.wall.Seconds(),
			"cpu_us_per_item": float64(p.cpu.Microseconds()) / items,
			"peak_heap_mb":    float64(p.peakHeap) / (1 << 20),
		})
		e2e.add(res.e2e)
		layers.add(map[string]float64{
			"runtime.allocs_per_item": float64(p.allocs) / items,
			"runtime.gc_cpu_frac":     p.gcCPU.Seconds() / p.cpu.Seconds(),
		})
	})
	if err != nil {
		return nil, nil, err
	}

	var sl *spanLog
	if cfg.trace && rec.Correct {
		sl = newSpanLog(w.name)
		// Traced passes run through decorators the untraced ones did not,
		// so they get a warm-up too; its spans are kept as pass 0.
		id := sl.startPass(0, time.Now())
		res, err := r.pass(sl)
		if err != nil {
			return nil, nil, fmt.Errorf("%s traced warm-up pass: %w", w.name, err)
		}
		sl.pop(id, time.Now())
		checked("traced warm-up pass", res)
		var tracedWall []float64
		err = measure(sl, func() error { return nil }, func(p passMeasure, res *passResult) {
			rec.TracedPasses++
			tracedWall = append(tracedWall, p.wall.Seconds())
			layers.add(res.layers)
			if c, ok := res.layers["core.phase_coverage"]; ok && c < 0.9 {
				fail(fmt.Errorf("traced pass %d: analyzer phases cover %.1f%% of core.analyze_s, want at least 90%%", rec.TracedPasses, 100*c))
			}
		})
		if err != nil {
			return nil, nil, err
		}
		if len(tracedWall) > 0 {
			traced, untraced := summarize("s", tracedWall), summarize("s", untracedWall)
			layers["bench.trace_overhead_frac"] = []float64{traced.Median/untraced.Median - 1}
		}
	}

	if stat1, err := readProcStat(); statErr == nil && err == nil {
		rec.StealFrac = stealFrac(stat0, stat1)
		layers["host.steal_frac"] = []float64{rec.StealFrac}
		if rec.StealFrac > stealWarn {
			fmt.Fprintf(warn, "WARNING: %s: host CPU steal was %.1f%% during the run; wall-clock metrics are suspect\n",
				w.name, 100*rec.StealFrac)
		}
	} else {
		fmt.Fprintf(warn, "WARNING: %s: cannot read host CPU steal: %v\n", w.name, firstErr(statErr, err))
	}
	layers["host.gomaxprocs"] = []float64{float64(runtime.GOMAXPROCS(0))}
	layers["host.num_cpu"] = []float64{float64(runtime.NumCPU())}
	rec.EndToEnd, rec.Layers = e2e.summarize(), layers.summarize()
	if sl == nil {
		return rec, nil, nil
	}
	return rec, sl.spans, nil
}

// passMeasure is one pass's cost as seen from outside the program.
type passMeasure struct {
	wall, cpu, gcCPU time.Duration
	allocs, peakHeap uint64
}

// measurePass runs one pass from a collected heap, so its peak heap is
// its own.
func measurePass(r runner, sl *spanLog, n int) (passMeasure, *passResult, error) {
	runtime.GC()
	rc0, cpu0 := readRuntimeCounters(), cpuTime()
	s := startSampler()
	start := time.Now()
	id := sl.startPass(n, start)
	res, err := r.pass(sl)
	end := time.Now()
	sl.pop(id, end)
	peak := s.finish()
	cpu1, rc1 := cpuTime(), readRuntimeCounters()
	if err != nil {
		return passMeasure{}, nil, err
	}
	return passMeasure{
		wall:     end.Sub(start),
		cpu:      cpu1 - cpu0,
		gcCPU:    time.Duration((rc1.gcCPU - rc0.gcCPU) * float64(time.Second)),
		allocs:   rc1.allocs - rc0.allocs,
		peakHeap: peak,
	}, res, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
