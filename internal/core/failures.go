package core

import "dnscontext/internal/trace"

// FailureStats summarizes the failure-path activity visible in the DNS
// dataset: retransmissions, SERVFAIL giveups, and truncation-driven TCP
// fallbacks. In a fault-free trace every field except Lookups is zero.
type FailureStats struct {
	// Lookups is the total number of DNS transactions examined.
	Lookups int
	// ServFails counts transactions that ended in SERVFAIL (RCode 2) —
	// under the simulator's fault model, client giveups after the full
	// retry ladder.
	ServFails int
	// Retried counts transactions that needed at least one
	// retransmission.
	Retried int
	// TotalRetries sums retransmissions across all transactions.
	TotalRetries int
	// TCPFallbacks counts transactions completed over TCP after a
	// truncated UDP response.
	TCPFallbacks int
}

// ServFailFraction is the fraction of lookups that gave up with SERVFAIL.
func (f FailureStats) ServFailFraction() float64 { return frac(f.ServFails, f.Lookups) }

// RetriedFraction is the fraction of lookups that retransmitted at least
// once.
func (f FailureStats) RetriedFraction() float64 { return frac(f.Retried, f.Lookups) }

// TCPFallbackFraction is the fraction of lookups completed over TCP after
// truncation.
func (f FailureStats) TCPFallbackFraction() float64 { return frac(f.TCPFallbacks, f.Lookups) }

// MeanAttempts is the mean number of transmissions per lookup (1.0 in a
// fault-free trace).
func (f FailureStats) MeanAttempts() float64 {
	if f.Lookups == 0 {
		return 0
	}
	return 1 + float64(f.TotalRetries)/float64(f.Lookups)
}

func frac(n, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}

// Failures scans the DNS dataset for fault-path activity, as one
// section of the per-house fold (summing integer tallies is
// order-independent, so the result is identical for every worker
// count). A summary-grade analysis has no dataset to scan; it returns
// the stats accumulated during the streaming ingest, which tally the
// same fields over the same records with the same add.
func (a *Analysis) Failures() FailureStats {
	if a.failures != nil {
		return *a.failures
	}
	return a.fold(foldReq{secs: secFailures}).failures
}

// add tallies one DNS transaction.
func (f *FailureStats) add(d *trace.DNSRecord) {
	f.Lookups++
	if failureRecord(d) {
		f.ServFails++
	}
	if d.Retries > 0 {
		f.Retried++
		f.TotalRetries += int(d.Retries)
	}
	if d.TC {
		f.TCPFallbacks++
	}
}

// HasFailures reports whether the dataset shows any fault-path activity
// at all — the gate for the report's failure section.
func (f FailureStats) HasFailures() bool {
	return f.ServFails > 0 || f.Retried > 0 || f.TCPFallbacks > 0
}

// failureRecord reports whether DNS record d is a failed transaction for
// pairing purposes (a SERVFAIL carries no addresses, so it can never pair
// anyway; the predicate exists for clarity at call sites).
func failureRecord(d *trace.DNSRecord) bool {
	return d.RCode == 2 && len(d.Answers) == 0
}
