package main

import (
	"fmt"
	"io"
	"math"
)

// compareFiles prints one row per workload and end-to-end metric of two
// records: both medians with their quartiles, the change of B against A,
// and a verdict.
func compareFiles(w io.Writer, pathA, pathB string) error {
	var a, b record
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s (seed %d, %s, GOMAXPROCS %d)\nB = %s (seed %d, %s, GOMAXPROCS %d)\n",
		pathA, a.Seed, a.GoVersion, a.GOMAXPROCS, pathB, b.Seed, b.GoVersion, b.GOMAXPROCS)
	fmt.Fprintln(w, "delta is B - A as a share of A's median (absolute for error_frac); verdicts hold it against the metric's bound")
	fmt.Fprintf(w, "%-13s %-16s %-9s %-34s %-34s %9s  %s\n", "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "delta", "verdict")
	byName := make(map[string]*workloadRecord, len(b.Workloads))
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(w, "%-13s only in A\n", wa.Name)
			continue
		}
		for _, d := range append(append([]metricDef(nil), endToEnd...), scanEndToEnd...) {
			sa, okA := wa.EndToEnd[d.Name]
			sb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			delta := fmt.Sprintf("%+8.2f%%", 100*(sb.Median-sa.Median)/math.Abs(sa.Median))
			if d.Abs {
				delta = fmt.Sprintf("%+9.4f", sb.Median-sa.Median)
			}
			fmt.Fprintf(w, "%-13s %-16s %-9s %-34s %-34s %9s  %s\n", wa.Name, d.Name, d.unit(),
				quartileCell(sa), quartileCell(sb), delta, verdict(d, sa, sb))
		}
	}
	return nil
}

func quartileCell(s summary) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g]", s.Median, s.Q1, s.Q3)
}

// verdict judges B against A. "unresolved": either side's quartile
// spread is wider than the bound, so the medians cannot be told apart,
// unless every sample of B beats every sample of A. Otherwise "worse" or
// "better" when the medians differ by more than the bound, and "~"
// inside it.
func verdict(d metricDef, a, b summary) string {
	worse := b.Median - a.Median
	spreadA, spreadB := a.Q3-a.Q1, b.Q3-b.Q1
	if !d.Abs {
		worse /= math.Abs(a.Median)
		spreadA, spreadB = a.spread(), b.spread()
	}
	if d.Better == "higher" {
		worse = -worse
	}
	if spreadA > d.Bound || spreadB > d.Bound {
		if beatsAll(d, b, a) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case worse > d.Bound:
		return "worse"
	case worse < -d.Bound:
		return "better"
	}
	return "~"
}

// beatsAll reports whether every sample of x is better than every
// sample of y.
func beatsAll(d metricDef, x, y summary) bool {
	if d.Better == "higher" {
		return x.Min > y.Max
	}
	return x.Max < y.Min
}
