package dnscontext

import (
	"testing"
	"time"
)

// BenchmarkTransportLookup measures the transport experiment's cells end
// to end — generation over the chosen wire transport plus the blocking
// analysis — and reports the per-transport headline numbers: the
// blocked-on-DNS share, the R-lookup latency through the Local platform
// (the one every house queries), and the stream failure counters. The
// DoT/DoH rows carry the handshake tax; the +res rows show session
// resumption clawing part of it back.
func BenchmarkTransportLookup(b *testing.B) {
	cells := []struct {
		name   string
		kind   string
		resume bool
	}{
		{"Do53", "udp", false},
		{"DoTCP", "tcp", false},
		{"DoT", "dot", false},
		{"DoT+res", "dot", true},
		{"DoH", "doh", false},
		{"DoH+res", "doh", true},
	}
	for _, cell := range cells {
		b.Run(cell.name, func(b *testing.B) {
			cfg := SmallGeneratorConfig(9)
			cfg.Faults.Loss = 0.01
			cfg.Transport.Kind = cell.kind
			cfg.Transport.SessionResumption = cell.resume
			var a *Analysis
			var eco *Ecosystem
			for i := 0; i < b.N; i++ {
				ds, e, err := Generate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				eco = e
				a = NewAnalyzer().Analyze(ds)
			}
			b.StopTimer()
			b.ReportMetric(pct(a.BlockedFraction()), "blocked_pct")
			rp := a.ResolverPerformance(eco.Profiles)
			if e := rp.RDelays[PlatformLocal]; e != nil && e.N() > 0 {
				b.ReportMetric(e.Median(), "r_median_ms")
			}
			var timeouts, resets uint64
			for _, rec := range eco.Platforms {
				to, rs := rec.LossCounters()
				timeouts += to
				resets += rs
			}
			b.ReportMetric(float64(timeouts), "timeouts")
			b.ReportMetric(float64(resets), "stream_resets")
		})
	}
}

// BenchmarkTransportWhatIf measures the analytic transport re-costing —
// the RNG-free replay behind `dnsctx -whatif-transport` — over a
// baseline Do53 trace, and reports the DoT-attributable deltas it
// derives (with and without session resumption).
func BenchmarkTransportWhatIf(b *testing.B) {
	a, _, eco := benchAnalysis(b)
	var rows []TransportRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = a.TransportWhatIf(eco.Profiles, DefaultTransportScenarios())
	}
	b.StopTimer()
	byName := make(map[string]TransportRow, len(rows))
	for _, r := range rows {
		byName[r.Scenario.String()] = r
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	b.ReportMetric(ms(byName["DoT"].MeanLookupDelta), "dot_delta_ms")
	b.ReportMetric(ms(byName["DoT+resume"].MeanLookupDelta), "dot_resume_delta_ms")
	b.ReportMetric(ms(byName["DoH"].MeanLookupDelta), "doh_delta_ms")
	b.ReportMetric(float64(byName["DoT"].BlockedOver-byName["Do53"].BlockedOver), "dot_newly_blocked")
}
