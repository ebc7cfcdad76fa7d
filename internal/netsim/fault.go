package netsim

import (
	"fmt"
	"math"
	"strings"
	"time"

	"dnscontext/internal/stats"
)

// Window is a half-open interval [Start, End) of virtual time.
type Window struct {
	Start, End time.Duration
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t time.Duration) bool { return t >= w.Start && t < w.End }

// ParseWindows parses a comma-separated list of start:duration pairs
// ("1h:10m,3h30m:5m") into the windows [start, start+duration). Empty
// input is no windows. Each start must be nonnegative, each duration
// positive, and each end representable.
func ParseWindows(s string) ([]Window, error) {
	if s == "" {
		return nil, nil
	}
	var ws []Window
	for _, part := range strings.Split(s, ",") {
		start, dur, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("window %q: want start:duration", part)
		}
		st, err := time.ParseDuration(start)
		if err != nil {
			return nil, fmt.Errorf("window %q: %w", part, err)
		}
		d, err := time.ParseDuration(dur)
		if err != nil {
			return nil, fmt.Errorf("window %q: %w", part, err)
		}
		if st < 0 || d <= 0 {
			return nil, fmt.Errorf("window %q: start must be >= 0, duration > 0", part)
		}
		if d > math.MaxInt64-st {
			return nil, fmt.Errorf("window %q: ends past the longest duration", part)
		}
		ws = append(ws, Window{Start: st, End: st + d})
	}
	return ws, nil
}

// FaultProfile parameterizes the failures injected into a link: random
// per-transmission packet loss, extra latency jitter (congestion), and
// scheduled total-loss windows (a resolver-platform outage). The zero
// value injects nothing and — critically for reproducibility — consumes
// no randomness, so a zero-fault run is bit-identical to a run built
// before fault injection existed.
type FaultProfile struct {
	// Loss is the probability one transmission (a single one-way packet
	// delivery) is dropped.
	Loss float64
	// ExtraJitter is the mean of an additional exponential latency term
	// added to every delivery that survives.
	ExtraJitter time.Duration
	// Outages are scheduled windows during which every delivery is lost,
	// regardless of Loss — the link's far end is down.
	Outages []Window
	// TruncateOver, when positive, marks UDP responses carrying more than
	// this many answers as truncated, forcing the client into TCP
	// fallback (one extra handshake plus exchange). Zero disables
	// truncation.
	TruncateOver int
}

// IsZero reports whether the profile injects nothing.
func (f FaultProfile) IsZero() bool {
	return f.Loss <= 0 && f.ExtraJitter <= 0 && len(f.Outages) == 0 && f.TruncateOver <= 0
}

// OutageAt reports whether t falls inside a scheduled outage window.
func (f FaultProfile) OutageAt(t time.Duration) bool {
	for _, w := range f.Outages {
		if w.Contains(t) {
			return true
		}
	}
	return false
}

// Lost samples whether a transmission sent at time t is dropped. During
// an outage it is always dropped (consuming no randomness); otherwise it
// is dropped with probability Loss. Loss <= 0 consumes no randomness.
func (f FaultProfile) Lost(t time.Duration, r *stats.RNG) bool {
	if f.OutageAt(t) {
		return true
	}
	return r.Bool(f.Loss)
}

// Jitter samples the extra latency added to one delivery. A zero
// ExtraJitter returns zero without consuming randomness.
func (f FaultProfile) Jitter(r *stats.RNG) time.Duration {
	if f.ExtraJitter <= 0 {
		return 0
	}
	return time.Duration(float64(f.ExtraJitter) * r.ExpFloat64())
}

// Truncated reports whether a UDP response with n answers exceeds the
// truncation threshold.
func (f FaultProfile) Truncated(n int) bool {
	return f.TruncateOver > 0 && n > f.TruncateOver
}
