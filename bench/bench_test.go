package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.median and
	// statistics.quantiles(xs, n=4).
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{10, 20, 30, 40, 50, 60}, 17.5, 35, 52.5},
		{[]float64{2.5, 9, 1, 7, 3, 3, 8}, 2.5, 3, 8},
		{[]float64{1, 1, 1, 100}, 1, 1, 75.25},
	}
	for _, c := range cases {
		s := summarize("s", c.xs)
		if s.Q1 != c.q1 || s.Median != c.med || s.Q3 != c.q3 {
			t.Errorf("%v: q1/median/q3 = %v/%v/%v, want %v/%v/%v", c.xs, s.Q1, s.Median, s.Q3, c.q1, c.med, c.q3)
		}
		if s.N != len(c.xs) || s.Samples[0] != c.xs[0] {
			t.Errorf("%v: summary lost the samples: %+v", c.xs, s)
		}
	}
	if s := summarize("s", []float64{4}); s.Q1 != 4 || s.Median != 4 || s.Q3 != 4 || s.spread() != 0 {
		t.Errorf("single sample: %+v", s)
	}
	// q1 92.5, q3 117.5, median 105
	if got := summarize("s", []float64{90, 100, 110, 120}).spread(); math.Abs(got-25/105.0) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, 25/105.0)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for i := 1; i <= 10000; i++ {
		h.observe(time.Duration(i) * time.Microsecond)
	}
	if h.count.Load() != 10000 || h.sum() != 50005000*time.Microsecond {
		t.Fatalf("count %d sum %v", h.count.Load(), h.sum())
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 5 * time.Millisecond}, {0.99, 9900 * time.Microsecond}, {1, 10 * time.Millisecond}} {
		got := h.quantile(c.q)
		if rel := math.Abs(float64(got-c.want)) / float64(c.want); got > c.want || rel > 1.0/64 {
			t.Errorf("quantile(%v) = %v, want within 1/64 below %v", c.q, got, c.want)
		}
	}
	var small hist
	small.observe(3)
	small.observe(40)
	if small.quantile(0.5) != 3 || small.quantile(1) != 40 {
		t.Errorf("exact buckets below 64 ns: p50 %v p100 %v", small.quantile(0.5), small.quantile(1))
	}
	var empty hist
	if empty.quantile(0.99) != 0 {
		t.Error("empty histogram quantile should be 0")
	}
	// Every bucket's low edge maps back to the bucket.
	for b := 0; b < len(h.counts); b++ {
		if histBucket(histLow(b)) != b {
			t.Fatalf("bucket %d: low edge %d maps to %d", b, histLow(b), histBucket(histLow(b)))
		}
	}
}

func TestParseProcStat(t *testing.T) {
	const stat = "cpu  100 5 50 800 10 1 2 30 7 0\ncpu0 50 2 25 400 5 0 1 15 3 0\nintr 1 2 3\n"
	got, err := parseProcStat(strings.NewReader(stat))
	if err != nil {
		t.Fatal(err)
	}
	if got.total != 998 || got.steal != 30 {
		t.Fatalf("got %+v, want total 998 (guest time excluded) and steal 30", got)
	}
	later := cpuTimes{total: got.total + 200, steal: got.steal + 10}
	if f := stealFrac(got, later); f != 0.05 {
		t.Fatalf("steal fraction %v, want 0.05", f)
	}
	for _, bad := range []string{"", "intr 1 2\n", "cpu 1 2 3\n", "cpu 1 2 3 4 5 6 7 x 9 10\n"} {
		if _, err := parseProcStat(strings.NewReader(bad)); err == nil {
			t.Errorf("%q: want an error", bad)
		}
	}
}

func TestParseResultLine(t *testing.T) {
	idx, name, status, err := parseResultLine([]byte(`{"i":42,"name":"www.x.example","type":"A","status":"NXDOMAIN","rcode":3,"ms":1.000,"attempts":1}` + "\n"))
	if err != nil || idx != 42 || name != "www.x.example" || status != "NXDOMAIN" {
		t.Fatalf("got %d %q %q %v", idx, name, status, err)
	}
	for _, bad := range []string{`{"name":"a"}`, `{"i":,"name":"a"}`, `{"i":1,"name":"a`, `{"i":1,"name":"a","type":"A"}`} {
		if _, _, _, err := parseResultLine([]byte(bad)); err == nil {
			t.Errorf("%s: want an error", bad)
		}
	}
}

func TestVerdict(t *testing.T) {
	tight := func(med float64) summary {
		return summarize("1/s", []float64{med * 0.99, med, med * 1.01})
	}
	thr := metricDef{Name: "items_per_s", Better: "higher", Bound: 0.10}
	lat := metricDef{Name: "lookup_p99_ms", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b summary
		want string
	}{
		{thr, tight(100), tight(105), "~"},
		{thr, tight(100), tight(80), "worse"},
		{thr, tight(100), tight(120), "better"},
		{lat, tight(100), tight(120), "worse"},
		{lat, tight(100), tight(80), "better"},
		{thr, summarize("1/s", []float64{70, 100, 130}), tight(100), "unresolved"},
		// Noisy, but every run of B beats every run of A.
		{thr, summarize("1/s", []float64{70, 100, 130}), summarize("1/s", []float64{140, 200, 260}), "better"},
		{metricDef{Name: "error_frac", Better: "lower", Bound: 0.001, Abs: true},
			summarize("fraction", []float64{0, 0, 0}), summarize("fraction", []float64{0.0005, 0.0005, 0.0005}), "~"},
		{metricDef{Name: "error_frac", Better: "lower", Bound: 0.001, Abs: true},
			summarize("fraction", []float64{0, 0, 0}), summarize("fraction", []float64{0.01, 0.01, 0.01}), "worse"},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.a.Samples, c.b.Samples, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the code
// that emits its metrics in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.unit() || g.Better != d.Better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.Bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v (unit %s)", kind, i, g, d, d.unit())
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}

// TestDecoratorsPassThrough: a traced (decorated) simulated scan writes
// byte-identical JSONL to an untraced one.
func TestDecoratorsPassThrough(t *testing.T) {
	r, _, err := setupSim(env{dir: t.TempDir(), seed: 3, sz: smokeSizes})
	if err != nil {
		t.Fatal(err)
	}
	sim := r.(*simRunner)
	digest := func(sl *spanLog) uint64 {
		t.Helper()
		if _, err := sim.pass(sl); err != nil {
			t.Fatal(err)
		}
		d, err := sortedJSONLDigest(sim.outPath, sim.n)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	plain := digest(nil)
	sl := newSpanLog("scan-sim")
	if traced := digest(sl); traced != plain {
		t.Fatalf("decorated scan digest %016x, undecorated %016x", traced, plain)
	}
	if len(sl.spans) == 0 {
		t.Fatal("the traced pass recorded no spans")
	}
}

// TestSmoke runs every workload end to end at tiny sizes, untraced and
// traced, and checks that each reports the metrics BENCHMARK.json
// promises.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		rec, spans, err := runWorkload(w, runConfig{seed: 1, trace: true, sz: smokeSizes, workdir: t.TempDir()}, os.Stderr)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 {
			t.Fatalf("%s: correct %v, %d of %d failed: %v", w.name, rec.Correct, rec.Failed, rec.Attempted, rec.Errors)
		}
		for _, d := range endToEnd {
			if s, ok := rec.EndToEnd[d.Name]; !ok || s.Median <= 0 {
				t.Errorf("%s: end-to-end %s missing or not positive: %+v", w.name, d.Name, s)
			}
		}
		for _, d := range perLayer {
			if u := d.unit(); u == "s" || u == "ms" {
				if s := rec.Layers[d.Name]; s.Median <= 0 {
					t.Errorf("%s: per-layer time %s missing or not positive", w.name, d.Name)
				}
			}
		}
		if len(spans) == 0 {
			t.Errorf("%s: no spans", w.name)
		}
		line, err := resultLine(rec, true)
		if err != nil || !strings.Contains(string(line), `"stage.engine_s"`) {
			t.Errorf("%s: result line %s, %v", w.name, line, err)
		}
	}
	t.Logf("five smoke workloads in %v", time.Since(start))
}
