package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dnscontext/internal/resolver"
	"dnscontext/internal/stats"
)

// ExportFigureData writes every table and figure as CSV files into dir
// (created if needed), for external plotting tools. One file per
// artifact:
//
//	table1.csv, table2.csv, table3.csv
//	fig1_gap_cdf.csv
//	fig2_delay_cdf.csv, fig2_contribution_cdf.csv
//	fig3_rdelay_cdf.csv, fig3_throughput_cdf.csv
//
// CDF files carry (x, cdf[, series]) rows with up to points rows per
// series.
func (a *Analysis) ExportFigureData(dir string, points int, profiles []resolver.PlatformProfile) error {
	if points <= 0 {
		points = 200
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// One per-house fold computes every exported section (fold.go).
	r := a.fold(foldReq{
		secs:     secTable1 | secRefresh | secFigure1 | secFigure2 | secResolvers,
		profiles: profiles, floor: 10 * time.Second, policies: table3Policies,
	})
	write := func(name string, fill func(*strings.Builder)) error {
		var b strings.Builder
		fill(&b)
		return os.WriteFile(filepath.Join(dir, name), []byte(b.String()), 0o644)
	}
	curve := func(b *strings.Builder, series string, e *stats.ECDF) {
		for _, p := range e.Points(points) {
			if series == "" {
				fmt.Fprintf(b, "%g,%g\n", p.X, p.Y)
			} else {
				fmt.Fprintf(b, "%s,%g,%g\n", series, p.X, p.Y)
			}
		}
	}

	if err := write("table1.csv", func(b *strings.Builder) {
		b.WriteString("platform,houses_frac,lookups_frac,conns_frac,bytes_frac\n")
		for _, row := range r.table1(profiles) {
			fmt.Fprintf(b, "%s,%g,%g,%g,%g\n", row.Platform,
				row.HousesFraction, row.LookupsFraction, row.ConnsFraction, row.BytesFraction)
		}
	}); err != nil {
		return err
	}

	if err := write("table2.csv", func(b *strings.Builder) {
		b.WriteString("class,conns,fraction\n")
		for _, row := range a.Table2() {
			fmt.Fprintf(b, "%s,%d,%g\n", row.Class, row.Conns, row.Fraction)
		}
	}); err != nil {
		return err
	}

	rf := r.refreshResult(10 * time.Second)
	if err := write("table3.csv", func(b *strings.Builder) {
		b.WriteString("policy,lookups,hits,misses,hit_rate,lookups_per_sec_per_house\n")
		for _, row := range []struct {
			name string
			p    CachePolicy
		}{{"standard", rf.Standard}, {"refresh_all", rf.RefreshAll}} {
			fmt.Fprintf(b, "%s,%d,%d,%d,%g,%g\n", row.name,
				row.p.Lookups, row.p.Hits, row.p.Misses, row.p.HitRate, row.p.LookupsPerSecPerHouse)
		}
	}); err != nil {
		return err
	}

	f1 := r.figure1.result(&a.Opts)
	if err := write("fig1_gap_cdf.csv", func(b *strings.Builder) {
		b.WriteString("gap_ms,cdf\n")
		curve(b, "", f1.Gaps)
	}); err != nil {
		return err
	}

	f2 := r.figure2.result()
	if err := write("fig2_delay_cdf.csv", func(b *strings.Builder) {
		b.WriteString("delay_ms,cdf\n")
		curve(b, "", f2.LookupDelays)
	}); err != nil {
		return err
	}
	if err := write("fig2_contribution_cdf.csv", func(b *strings.Builder) {
		b.WriteString("series,contribution_pct,cdf\n")
		curve(b, "all", f2.ContributionAll)
		curve(b, "SC", f2.ContributionSC)
		curve(b, "R", f2.ContributionR)
	}); err != nil {
		return err
	}

	rp := r.resolverPerformance()
	if err := write("fig3_rdelay_cdf.csv", func(b *strings.Builder) {
		b.WriteString("platform,delay_ms,cdf\n")
		for _, p := range profiles {
			if e := rp.RDelays[p.ID]; e != nil && e.N() > 0 {
				curve(b, p.ID.String(), e)
			}
		}
	}); err != nil {
		return err
	}
	return write("fig3_throughput_cdf.csv", func(b *strings.Builder) {
		b.WriteString("platform,throughput_bps,cdf\n")
		for _, p := range profiles {
			if e := rp.Throughput[p.ID]; e != nil && e.N() > 0 {
				curve(b, p.ID.String(), e)
			}
		}
		if rp.GoogleNoCC.N() > 0 {
			curve(b, "Google-noCC", rp.GoogleNoCC)
		}
	})
}
