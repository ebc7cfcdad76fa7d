package core

import (
	"fmt"
	"io"
	"sort"
	"time"

	"dnscontext/internal/resolver"
	"dnscontext/internal/stats"
)

// Report renders the full paper reproduction — every table and figure —
// as text. profiles supplies the resolver-platform address book. A
// summary-grade analysis (no resident dataset) renders WriteSummary
// instead, since the figure computations need the raw records.
func (a *Analysis) Report(w io.Writer, profiles []resolver.PlatformProfile) error {
	if a.DS == nil {
		return a.WriteSummary(w)
	}
	// Every section comes out of one per-house fold (fold.go).
	r := a.fold(foldReq{
		secs: secAll, profiles: profiles,
		extra: 100 * time.Millisecond, floor: 10 * time.Second, policies: table3Policies,
	})
	// Errors from fmt.Fprintf to w are surfaced once at the end via this
	// small tracking writer, keeping the body readable.
	tw := &trackingWriter{w: w}

	fmt.Fprintf(tw, "=== Putting DNS in Context: reproduction report ===\n")
	st := r.datasetStats(a)
	fmt.Fprintf(tw, "connections: %d (%.0f%% TCP / %.0f%% UDP; paper: 88/12)   dns transactions: %d\n",
		st.Connections, 100*st.TCPFraction, 100*st.UDPFraction, st.DNSTransactions)
	fmt.Fprintf(tw, "houses: %d   window: %v   conns/house/day: %.0f\n\n",
		st.Houses, st.Window.Round(time.Minute), st.ConnsPerHousePerDay)

	// --- §4 pairing & blocking ---
	unamb, paired := r.pairing.result()
	fmt.Fprintf(tw, "--- Section 4: pairing ---\n")
	fmt.Fprintf(tw, "paired connections: %d (%.1f%% of all)\n", paired, pct(paired, len(a.Paired)))
	fmt.Fprintf(tw, "single non-expired candidate: %.1f%% (paper: >82%%)\n\n", 100*unamb)

	f1 := r.figure1.result(&a.Opts)
	fmt.Fprintf(tw, "--- Figure 1: DNS-completion to connection-start gap ---\n")
	if f1.Gaps.N() > 0 {
		fmt.Fprint(tw, stats.RenderCDFs(stats.PlotOptions{
			Title: "Fig 1. CDF of gap (msec)", XLabel: "msec", LogX: true, XMin: 0.1,
		}, stats.Curve{Name: "gap", ECDF: f1.Gaps}))
	}
	fmt.Fprintf(tw, "first-use fraction within %v: %.0f%% (paper: 91%%)\n", f1.Knee, 100*f1.FirstUseWithinKnee)
	fmt.Fprintf(tw, "first-use fraction beyond %v:  %.0f%% (paper: 21%%)\n\n", f1.Knee, 100*f1.FirstUseBeyondKnee)

	// --- Table 1 ---
	fmt.Fprintf(tw, "--- Table 1: resolver platforms ---\n")
	fmt.Fprintf(tw, "%-11s %9s %10s %9s %9s\n", "Resolver", "% Houses", "% Lookups", "% Conns", "% Bytes")
	for _, row := range r.table1(profiles) {
		fmt.Fprintf(tw, "%-11s %9.1f %10.1f %9.1f %9.1f\n",
			row.Platform, 100*row.HousesFraction, 100*row.LookupsFraction,
			100*row.ConnsFraction, 100*row.BytesFraction)
	}
	fmt.Fprintf(tw, "houses using only the local resolvers: %.1f%% (paper: ~16%%)\n\n",
		100*OnlyLocalFraction(r.perHouse))

	// --- Table 2 ---
	fmt.Fprintf(tw, "--- Table 2: DNS information origin ---\n")
	fmt.Fprintf(tw, "%-6s %-24s %10s %8s\n", "Class", "Desc.", "Conns", "% Conns")
	desc := map[Class]string{
		ClassN: "No DNS", ClassLC: "Local Cache", ClassP: "Prefetched",
		ClassSC: "Shared Resolver Cache", ClassR: "Requires Resolution",
	}
	for _, row := range a.Table2() {
		fmt.Fprintf(tw, "%-6s %-24s %10d %8.1f\n", row.Class, desc[row.Class], row.Conns, 100*row.Fraction)
	}
	fmt.Fprintf(tw, "blocked (SC+R): %.1f%% (paper: 42.1%%)   shared-cache hit rate: %.1f%% (paper: 62.6%%)\n\n",
		100*a.BlockedFraction(), 100*a.SharedCacheHitRate())

	// --- §5.1 ---
	nd := r.noDNS.result(len(a.Paired))
	fmt.Fprintf(tw, "--- Section 5.1: connections without DNS ---\n")
	fmt.Fprintf(tw, "N connections: %d, high-port (p2p-like): %.1f%% (paper: 81.6%%)\n", nd.Total, 100*nd.HighPortFraction)
	fmt.Fprintf(tw, "DoT (853) connections: %d (paper: 0)\n", nd.DoTConns)
	fmt.Fprintf(tw, "unpaired non-p2p share of all conns: %.1f%% (paper: 1.3%%)\n", 100*nd.UnpairedNonP2PFraction)
	for _, port := range []uint16{443, 123, 80} {
		fmt.Fprintf(tw, "  reserved-port N conns on %d: %d\n", port, nd.ReservedPortCounts[port])
	}
	fmt.Fprintln(tw)

	// --- §5.2 ---
	ttl := r.ttl.result()
	pf := r.prefetch.result(len(a.DS.DNS))
	fmt.Fprintf(tw, "--- Section 5.2: local cache and prefetching ---\n")
	fmt.Fprintf(tw, "LC conns using expired records: %.1f%% (paper: 22.2%%)\n", 100*ttl.LCExpiredFraction)
	fmt.Fprintf(tw, "P conns using expired records:  %.1f%% (paper: 12.4%%)\n", 100*ttl.PExpiredFraction)
	if ttl.Lateness.N() > 0 {
		fmt.Fprintf(tw, "violation lateness: %.0f%% beyond 30 s (paper: 82%%), median %.0f s (paper: 890 s), p90 %.0f s (paper: ~19k s)\n",
			100*ttl.LatenessBeyond30s, ttl.Lateness.Median(), ttl.Lateness.Quantile(0.9))
	}
	fmt.Fprintf(tw, "median lookup-to-use gap: P %.0f s (paper: 310 s), LC %.0f s (paper: 1033 s)\n",
		ttl.GapMedianP.Seconds(), ttl.GapMedianLC.Seconds())
	fmt.Fprintf(tw, "unused lookups: %.1f%% (paper: 37.8%%); speculative lookups used: %.1f%% (paper: 22.3%%)\n\n",
		100*pf.UnusedFraction, 100*pf.SpeculativeUsedFraction)

	// --- Figure 2 / §6 ---
	f2 := r.figure2.result()
	fmt.Fprintf(tw, "--- Figure 2 / Section 6: DNS performance for SC and R ---\n")
	if f2.LookupDelays.N() > 0 {
		fmt.Fprint(tw, stats.RenderCDFs(stats.PlotOptions{
			Title: "Fig 2 (top). CDF of DNS lookup delay (msec)", XLabel: "msec", LogX: true, XMin: 0.5,
		}, stats.Curve{Name: "SC+R", ECDF: f2.LookupDelays}))
		fmt.Fprintf(tw, "lookup delay: median %.1f ms (paper: 8.5), p75 %.1f ms (paper: 20), >100 ms: %.1f%% (paper: 3.3%%)\n",
			f2.LookupDelays.Median(), f2.LookupDelays.Quantile(0.75), 100*f2.LookupDelays.FractionAbove(100))
	}
	if f2.ContributionAll.N() > 0 {
		fmt.Fprint(tw, stats.RenderCDFs(stats.PlotOptions{
			Title: "Fig 2 (bottom). CDF of DNS %% of transaction", XLabel: "% of transaction", LogX: true, XMin: 0.001,
		},
			stats.Curve{Name: "all", ECDF: f2.ContributionAll},
			stats.Curve{Name: "SC", ECDF: f2.ContributionSC},
			stats.Curve{Name: "R", ECDF: f2.ContributionR}))
		fmt.Fprintf(tw, "DNS >1%% of transaction: %.0f%% (paper: 20%%); >=10%%: %.0f%% (paper: 8%%); R >1%%: %.0f%% (paper: 30%%)\n",
			100*f2.ContributionAll.FractionAbove(1), 100*f2.ContributionAll.FractionAbove(10),
			100*f2.ContributionR.FractionAbove(1))
	}
	sig := r.sig.result(len(a.Paired))
	fmt.Fprintf(tw, "significance quadrants over SC+R (abs>%v, rel>%.0f%%):\n", a.Opts.InsignificantAbs, 100*a.Opts.InsignificantRel)
	fmt.Fprintf(tw, "  both insignificant: %.1f%% (paper: 64.0%%)\n", 100*sig.BothInsignificant)
	fmt.Fprintf(tw, "  only relative high: %.1f%% (paper: 11.5%%)\n", 100*sig.OnlyRelHigh)
	fmt.Fprintf(tw, "  only absolute high: %.1f%% (paper: 15.9%%)\n", 100*sig.OnlyAbsHigh)
	fmt.Fprintf(tw, "  both significant:   %.1f%% (paper: 8.6%%) -> %.1f%% of all conns (paper: 3.6%%)\n\n",
		100*sig.BothSignificant, 100*sig.OverallSignificant)

	// --- §7 / Figure 3 ---
	rp := r.resolverPerformance()
	fmt.Fprintf(tw, "--- Section 7 / Figure 3: per-platform comparison ---\n")
	fmt.Fprintf(tw, "shared-cache hit rate by platform (paper: CF 83.6 / Local 71.2 / OpenDNS 58.8 / Google 23.0):\n")
	for _, p := range profiles {
		if hr, ok := rp.HitRate[p.ID]; ok {
			fmt.Fprintf(tw, "  %-11s %.1f%%\n", p.ID, 100*hr)
		}
	}
	var rCurves, tCurves []stats.Curve
	for _, p := range profiles {
		if e := rp.RDelays[p.ID]; e != nil && e.N() > 0 {
			rCurves = append(rCurves, stats.Curve{Name: p.ID.String(), ECDF: e})
		}
		if e := rp.Throughput[p.ID]; e != nil && e.N() > 0 {
			tCurves = append(tCurves, stats.Curve{Name: p.ID.String(), ECDF: e})
		}
	}
	if len(rCurves) > 0 {
		fmt.Fprint(tw, stats.RenderCDFs(stats.PlotOptions{
			Title: "Fig 3 (top). CDF of R lookup delay by platform (msec)", XLabel: "msec", LogX: true, XMin: 1,
		}, rCurves...))
	}
	if len(tCurves) > 0 {
		if rp.GoogleNoCC.N() > 0 {
			tCurves = append(tCurves, stats.Curve{Name: "Google-noCC", ECDF: rp.GoogleNoCC})
		}
		fmt.Fprint(tw, stats.RenderCDFs(stats.PlotOptions{
			Title: "Fig 3 (bottom). CDF of throughput by platform (bps)", XLabel: "bps", LogX: true, XMin: 100,
		}, tCurves...))
	}
	fmt.Fprintf(tw, "connectivitycheck share of Google SC+R conns: %.1f%% (paper: 23.5%%), other platforms: %.1f%% (paper: 0.3%%)\n\n",
		100*rp.GoogleCCFraction, 100*rp.NonGoogleCCFraction)

	// --- Fault injection (only for traces that show failure activity) ---
	if fs := r.failures; fs.HasFailures() {
		fmt.Fprintf(tw, "--- Fault injection: failure-adjusted view ---\n")
		fmt.Fprintf(tw, "lookups: %d   servfail: %.2f%%   retried: %.2f%%   tcp-fallback: %.2f%%   mean attempts: %.3f\n",
			fs.Lookups, 100*fs.ServFailFraction(), 100*fs.RetriedFraction(),
			100*fs.TCPFallbackFraction(), fs.MeanAttempts())
		fmt.Fprintf(tw, "blocked (SC+R) under faults: %.1f%% — retransmission delay inflates lookup durations,\n", 100*a.BlockedFraction())
		fmt.Fprintf(tw, "shifting the SC/R split and the blocking distribution relative to a fault-free run\n\n")
	}

	// --- §8 ---
	wh := r.whole.result(len(a.Paired))
	fmt.Fprintf(tw, "--- Section 8: possible improvements ---\n")
	fmt.Fprintf(tw, "whole-house cache: %.1f%% of all conns move to LC (paper: 9.8%%); SC benefit %.0f%% (paper: 22%%), R benefit %.0f%% (paper: 25%%)\n",
		100*wh.MovedFraction, 100*wh.SCBenefit, 100*wh.RBenefit)

	sl := r.slack.result()
	fmt.Fprintf(tw, "lookup slack (first-use gap): >1s for %.0f%%, >10s for %.0f%% of used lookups; +100ms would newly block %.1f%% of conns\n",
		100*sl.SlackOver1s, 100*sl.SlackOver10s, 100*r.tolerable.result())

	rf := r.refreshResult(10 * time.Second)
	fmt.Fprintf(tw, "refresh simulation (Table 3), %d DNS-using conns over %v, %d houses:\n", rf.Conns, rf.Window.Round(time.Minute), rf.Houses)
	fmt.Fprintf(tw, "  %-22s %12s %12s\n", "", "Standard", "Refresh All")
	fmt.Fprintf(tw, "  %-22s %12d %12d\n", "DNS lookups", rf.Standard.Lookups, rf.RefreshAll.Lookups)
	fmt.Fprintf(tw, "  %-22s %12.3f %12.3f\n", "Lookups/sec/house", rf.Standard.LookupsPerSecPerHouse, rf.RefreshAll.LookupsPerSecPerHouse)
	fmt.Fprintf(tw, "  %-22s %11.1f%% %11.1f%%\n", "Cache hits", 100*rf.Standard.HitRate, 100*rf.RefreshAll.HitRate)
	fmt.Fprintf(tw, "  lookup multiplier: %.0fx (paper: ~144x)\n", rf.LookupMultiplier)

	return tw.err
}

// WriteSummary renders the classification summary available in every
// analysis grade: the totals, Table 2, the blocking and shared-cache
// aggregates, the derived per-resolver thresholds, failure statistics,
// and the result digest. The output is byte-identical whether the
// analysis came from the in-memory pipeline, the out-of-core streaming
// path, or a multi-process shard merge — the parity the stream tests
// pin.
func (a *Analysis) WriteSummary(w io.Writer) error {
	tw := &trackingWriter{w: w}

	fmt.Fprintf(tw, "=== dnscontext analysis summary ===\n")
	fmt.Fprintf(tw, "connections: %d   dns transactions: %d\n\n", a.connTotal, a.dnsTotal)

	fmt.Fprintf(tw, "--- Table 2: DNS information origin ---\n")
	fmt.Fprintf(tw, "%-6s %-24s %10s %8s\n", "Class", "Desc.", "Conns", "% Conns")
	desc := map[Class]string{
		ClassN: "No DNS", ClassLC: "Local Cache", ClassP: "Prefetched",
		ClassSC: "Shared Resolver Cache", ClassR: "Requires Resolution",
	}
	for _, row := range a.Table2() {
		fmt.Fprintf(tw, "%-6s %-24s %10d %8.1f\n", row.Class, desc[row.Class], row.Conns, 100*row.Fraction)
	}
	fmt.Fprintf(tw, "blocked (SC+R): %.1f%%   shared-cache hit rate: %.1f%%\n\n",
		100*a.BlockedFraction(), 100*a.SharedCacheHitRate())

	fmt.Fprintf(tw, "--- per-resolver SC/R thresholds (default %v) ---\n", a.Opts.DefaultSCThreshold)
	addrs := make([]string, 0, len(a.Thresholds))
	for addr := range a.Thresholds {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		fmt.Fprintf(tw, "  %-16s %v\n", addr, a.Thresholds[addr])
	}
	fmt.Fprintln(tw)

	if fs := a.Failures(); fs.HasFailures() {
		fmt.Fprintf(tw, "--- failure-path activity ---\n")
		fmt.Fprintf(tw, "lookups: %d   servfail: %.2f%%   retried: %.2f%%   tcp-fallback: %.2f%%   mean attempts: %.3f\n\n",
			fs.Lookups, 100*fs.ServFailFraction(), 100*fs.RetriedFraction(),
			100*fs.TCPFallbackFraction(), fs.MeanAttempts())
	}

	fmt.Fprintf(tw, "digest: %016x\n", a.Digest())
	return tw.err
}

func pct(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(n) / float64(total)
}

// trackingWriter records the first write error so Report can stay
// readable.
type trackingWriter struct {
	w   io.Writer
	err error
}

func (t *trackingWriter) Write(p []byte) (int, error) {
	if t.err != nil {
		return len(p), nil
	}
	if _, err := t.w.Write(p); err != nil {
		t.err = err
	}
	return len(p), nil
}
