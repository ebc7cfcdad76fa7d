package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestECDFEmptyPanics(t *testing.T) {
	e := NewECDF(0)
	for name, f := range map[string]func(){
		"Quantile": func() { e.Quantile(0.5) },
		"Min":      func() { e.Min() },
		"Max":      func() { e.Max() },
		"Mean":     func() { e.Mean() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty ECDF did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestECDFRejectsNaN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(NaN) did not panic")
		}
	}()
	NewECDF(0).Add(math.NaN())
}

func TestECDFQuantileBounds(t *testing.T) {
	e := NewECDF(0)
	e.AddAll([]float64{3, 1, 2})
	if e.Quantile(0) != 1 || e.Quantile(1) != 3 {
		t.Fatalf("extreme quantiles: q0=%g q1=%g", e.Quantile(0), e.Quantile(1))
	}
	if e.Median() != 2 {
		t.Fatalf("median = %g, want 2", e.Median())
	}
}

func TestECDFQuantileInterpolation(t *testing.T) {
	e := NewECDF(0)
	e.AddAll([]float64{0, 10})
	if got := e.Quantile(0.25); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("Quantile(0.25) = %g, want 2.5", got)
	}
}

func TestECDFSingleSample(t *testing.T) {
	e := NewECDF(0)
	e.Add(7)
	for _, q := range []float64{0, 0.3, 0.5, 1} {
		if e.Quantile(q) != 7 {
			t.Fatalf("Quantile(%g) = %g, want 7", q, e.Quantile(q))
		}
	}
}

func TestECDFFractionAtMost(t *testing.T) {
	e := NewECDF(0)
	e.AddAll([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := e.FractionAtMost(c.x); got != c.want {
			t.Errorf("FractionAtMost(%g) = %g, want %g", c.x, got, c.want)
		}
	}
	if got := e.FractionAbove(2.5); got != 0.5 {
		t.Errorf("FractionAbove(2.5) = %g, want 0.5", got)
	}
}

func TestECDFFractionAtMostEmpty(t *testing.T) {
	if got := NewECDF(0).FractionAtMost(5); got != 0 {
		t.Fatalf("empty FractionAtMost = %g", got)
	}
}

// Property: quantile is monotone non-decreasing in q.
func TestECDFQuantileMonotone(t *testing.T) {
	r := NewRNG(33)
	f := func(seed uint32) bool {
		e := NewECDF(0)
		n := int(seed%100) + 2
		for i := 0; i < n; i++ {
			e.Add(r.Float64() * 1000)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := e.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: FractionAtMost(Quantile(q)) >= q.
func TestECDFQuantileFractionConsistency(t *testing.T) {
	r := NewRNG(34)
	e := NewECDF(0)
	for i := 0; i < 500; i++ {
		e.Add(r.Float64())
	}
	for q := 0.0; q <= 1.0; q += 0.01 {
		if frac := e.FractionAtMost(e.Quantile(q)); frac < q-1e-9 {
			t.Fatalf("FractionAtMost(Quantile(%.2f)) = %.4f < q", q, frac)
		}
	}
}

func TestECDFValuesSorted(t *testing.T) {
	e := NewECDF(0)
	e.AddAll([]float64{5, 1, 4, 2, 3})
	if !sort.Float64sAreSorted(e.Values()) {
		t.Fatal("Values not sorted")
	}
	if e.N() != 5 {
		t.Fatalf("N = %d", e.N())
	}
}

func TestECDFAddAfterQuery(t *testing.T) {
	e := NewECDF(0)
	e.AddAll([]float64{1, 3})
	_ = e.Median()
	e.Add(2)
	if e.Median() != 2 {
		t.Fatalf("median after late Add = %g, want 2", e.Median())
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF(0)
	for i := 0; i < 50; i++ {
		e.Add(float64(i))
	}
	pts := e.Points(10)
	if len(pts) != 10 {
		t.Fatalf("got %d points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y || pts[i].X < pts[i-1].X {
			t.Fatal("points not monotone")
		}
	}
	if NewECDF(0).Points(5) != nil {
		t.Fatal("empty ECDF should yield nil points")
	}
}

func TestLogHistogram(t *testing.T) {
	h := NewLogHistogram(0.001, 4, 6)
	h.Add(0.0001) // underflow
	h.Add(0.002)
	h.Add(5000)
	h.Add(1e12) // overflow clamps to last bucket
	if h.Total() != 4 {
		t.Fatalf("total %d", h.Total())
	}
	out := h.String()
	if out == "" {
		t.Fatal("empty render")
	}
}

func TestLogHistogramInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid params did not panic")
		}
	}()
	NewLogHistogram(0, 4, 6)
}

func TestRenderCDFs(t *testing.T) {
	r := NewRNG(55)
	a, b := NewECDF(0), NewECDF(0)
	for i := 0; i < 1000; i++ {
		a.Add(Exponential{Mean: 10}.Sample(r))
		b.Add(Exponential{Mean: 100}.Sample(r))
	}
	out := RenderCDFs(PlotOptions{Title: "test", XLabel: "msec", LogX: true},
		Curve{Name: "fast", ECDF: a}, Curve{Name: "slow", ECDF: b})
	if len(out) < 100 {
		t.Fatalf("render too small:\n%s", out)
	}
	empty := RenderCDFs(PlotOptions{Title: "none"}, Curve{Name: "x", ECDF: NewECDF(0)})
	if empty != "none: (no data)\n" {
		t.Fatalf("empty render = %q", empty)
	}
}

func TestRenderCDFsFixedRangeAndLinear(t *testing.T) {
	e := NewECDF(0)
	for i := 1; i <= 100; i++ {
		e.Add(float64(i))
	}
	// Fixed x range, linear scale.
	out := RenderCDFs(PlotOptions{Title: "lin", XMin: 0, XMax: 200, Width: 40, Height: 10},
		Curve{Name: "x", ECDF: e})
	if len(out) == 0 || !strings.Contains(out, "lin") {
		t.Fatalf("render: %q", out)
	}
	// Log scale with a non-positive min is clamped, not crashed.
	e2 := NewECDF(0)
	e2.Add(0)
	e2.Add(5)
	out2 := RenderCDFs(PlotOptions{Title: "log", LogX: true, XLabel: "s"}, Curve{Name: "y", ECDF: e2})
	if !strings.Contains(out2, "log scale") || !strings.Contains(out2, "1e-06") {
		t.Fatalf("log render: %q", out2)
	}
	// Degenerate distribution (all equal): x range widened, no panic.
	e3 := NewECDF(0)
	e3.Add(7)
	e3.Add(7)
	_ = RenderCDFs(PlotOptions{Title: "flat"}, Curve{Name: "z", ECDF: e3})
}

func TestRenderCDFsSkipsEmptyCurves(t *testing.T) {
	full := NewECDF(0)
	full.Add(1)
	full.Add(2)
	out := RenderCDFs(PlotOptions{Title: "mix"},
		Curve{Name: "empty", ECDF: NewECDF(0)},
		Curve{Name: "full", ECDF: full})
	if !strings.Contains(out, "full") {
		t.Fatalf("legend missing: %q", out)
	}
}
