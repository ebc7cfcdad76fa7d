package netsim

import (
	"slices"
	"testing"
	"time"

	"dnscontext/internal/stats"
)

func TestFaultProfileIsZero(t *testing.T) {
	if !(FaultProfile{}).IsZero() {
		t.Fatal("zero value not IsZero")
	}
	cases := []FaultProfile{
		{Loss: 0.01},
		{ExtraJitter: time.Millisecond},
		{Outages: []Window{{Start: 0, End: time.Second}}},
		{TruncateOver: 10},
	}
	for i, f := range cases {
		if f.IsZero() {
			t.Fatalf("case %d: %+v reported IsZero", i, f)
		}
	}
}

func TestWindowContains(t *testing.T) {
	w := Window{Start: time.Second, End: 2 * time.Second}
	for _, c := range []struct {
		t    time.Duration
		want bool
	}{
		{0, false},
		{time.Second, true}, // closed at the start
		{1500 * time.Millisecond, true},
		{2 * time.Second, false}, // open at the end
		{3 * time.Second, false},
	} {
		if got := w.Contains(c.t); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

// TestParseWindows: the start:duration list both commands take
// (dnsctx -fault-outage, dnsscan -chaos-blackhole) parses to half-open
// windows, and every malformed, negative, empty or overflowing entry is
// an error rather than a window the simulator or proxy would mis-serve.
func TestParseWindows(t *testing.T) {
	valid := []struct {
		in   string
		want []Window
	}{
		{"", nil},
		{"1h:10m", []Window{{Start: time.Hour, End: time.Hour + 10*time.Minute}}},
		{"0s:1ns", []Window{{Start: 0, End: 1}}},
		{"2s:500ms,10s:1s", []Window{
			{Start: 2 * time.Second, End: 2500 * time.Millisecond},
			{Start: 10 * time.Second, End: 11 * time.Second},
		}},
		{"1h:10m,3h30m:5m", []Window{
			{Start: time.Hour, End: 70 * time.Minute},
			{Start: 210 * time.Minute, End: 215 * time.Minute},
		}},
		{"2562047h:47m", []Window{{Start: 2562047 * time.Hour, End: 2562047*time.Hour + 47*time.Minute}}},
	}
	for _, c := range valid {
		got, err := ParseWindows(c.in)
		if err != nil || !slices.Equal(got, c.want) {
			t.Errorf("ParseWindows(%q) = %v, %v; want %v, nil", c.in, got, err, c.want)
		}
	}
	invalid := []string{
		// no separator, empty halves, empty list entries
		"1h", "1h:", ":10m", ",", "1h:10m,", ",1h:10m",
		// not durations
		"one:two", "1h:10", "1h:10m:5m",
		// negative start, zero or negative duration
		"-1s:10m", "1m:-10s", "1m:0s",
		// an end past the longest duration
		"2562047h:1h",
	}
	for _, in := range invalid {
		if got, err := ParseWindows(in); err == nil {
			t.Errorf("ParseWindows(%q) = %v, nil; want an error", in, got)
		}
	}
}

func TestOutageDropsEverythingWithoutRNG(t *testing.T) {
	f := FaultProfile{Outages: []Window{{Start: time.Hour, End: 2 * time.Hour}}}
	// Lost during an outage must not consume randomness: pass a nil RNG
	// and rely on the early return.
	if !f.Lost(90*time.Minute, nil) {
		t.Fatal("packet survived an outage window")
	}
	if f.OutageAt(30 * time.Minute) {
		t.Fatal("outage reported outside the window")
	}
}

// TestZeroProfileRNGIdentity is the determinism cornerstone: with a zero
// fault profile, DeliverUnder must consume exactly the randomness Delay
// would, so fault-free runs are bit-identical to the pre-fault code.
func TestZeroProfileRNGIdentity(t *testing.T) {
	l := Link{Base: time.Millisecond, Jitter: 300 * time.Microsecond, SlowProb: 0.01, SlowFactor: 8}
	r1 := stats.NewRNG(42)
	r2 := stats.NewRNG(42)
	for i := 0; i < 10000; i++ {
		want := l.Delay(r1)
		got, lost := l.DeliverUnder(time.Duration(i)*time.Second, FaultProfile{}, r2)
		if lost {
			t.Fatalf("iteration %d: packet lost under zero profile", i)
		}
		if got != want {
			t.Fatalf("iteration %d: DeliverUnder delay %v != Delay %v (RNG streams diverged)", i, got, want)
		}
	}
	// Both streams must end in the same state.
	if a, b := r1.Uint64(), r2.Uint64(); a != b {
		t.Fatalf("RNG states diverged after identical draws: %d != %d", a, b)
	}
}

func TestLossRateRoughlyHonored(t *testing.T) {
	l := Link{Base: time.Millisecond}
	f := FaultProfile{Loss: 0.1}
	r := stats.NewRNG(7)
	lostN := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if _, lost := l.DeliverUnder(0, f, r); lost {
			lostN++
		}
	}
	got := float64(lostN) / n
	if got < 0.09 || got > 0.11 {
		t.Fatalf("loss rate %.4f, want ~0.1", got)
	}
}

func TestExtraJitterIncreasesDelay(t *testing.T) {
	l := Link{Base: time.Millisecond}
	f := FaultProfile{ExtraJitter: 10 * time.Millisecond}
	r := stats.NewRNG(7)
	var sum time.Duration
	const n = 10000
	for i := 0; i < n; i++ {
		d, _ := l.DeliverUnder(0, f, r)
		if d < l.Base {
			t.Fatalf("delay %v below base", d)
		}
		sum += d
	}
	mean := sum / n
	// Base 1ms + exponential jitter with mean 10ms ⇒ mean ≈ 11ms.
	if mean < 8*time.Millisecond || mean > 14*time.Millisecond {
		t.Fatalf("mean delay %v, want ≈11ms", mean)
	}
}

func TestTruncated(t *testing.T) {
	f := FaultProfile{TruncateOver: 3}
	if f.Truncated(3) {
		t.Fatal("n == threshold must not truncate")
	}
	if !f.Truncated(4) {
		t.Fatal("n > threshold must truncate")
	}
	if (FaultProfile{}).Truncated(1000) {
		t.Fatal("zero profile truncated")
	}
}

func TestScheduleCancel(t *testing.T) {
	s := New()
	ran := false
	h := s.Schedule(time.Second, func(time.Duration) { ran = true })
	if !h.Cancel() {
		t.Fatal("first Cancel reported not-pending")
	}
	if h.Cancel() {
		t.Fatal("second Cancel reported pending")
	}
	s.Run()
	if ran {
		t.Fatal("cancelled event executed")
	}
	if s.Events() != 0 {
		t.Fatalf("cancelled event counted: %d", s.Events())
	}
}

func TestCancelledEventDoesNotAdvanceClock(t *testing.T) {
	s := New()
	h := s.Schedule(10*time.Second, func(time.Duration) {})
	s.At(2*time.Second, func(time.Duration) {})
	h.Cancel()
	s.Run()
	if s.Now() != 2*time.Second {
		t.Fatalf("clock at %v, want 2s (cancelled event must not advance it)", s.Now())
	}
}

func TestRunUntilSkipsCancelledHead(t *testing.T) {
	s := New()
	// The earliest event is cancelled; the next live event is beyond the
	// horizon. RunUntil must execute nothing and stop the clock at end.
	h := s.Schedule(time.Second, func(time.Duration) { t.Fatal("cancelled event ran") })
	ran := false
	s.At(time.Minute, func(time.Duration) { ran = true })
	h.Cancel()
	s.RunUntil(10 * time.Second)
	if ran {
		t.Fatal("event beyond horizon executed")
	}
	if s.Now() != 10*time.Second {
		t.Fatalf("clock at %v, want 10s", s.Now())
	}
	// The deferred live event still runs when the horizon extends.
	s.RunUntil(2 * time.Minute)
	if !ran {
		t.Fatal("live event never executed")
	}
}

func TestScheduleThenTimeoutPattern(t *testing.T) {
	// The idiom the fault layer exists for: arm a timeout, cancel it when
	// the response arrives first.
	s := New()
	timedOut := false
	timeout := s.Schedule(3*time.Second, func(time.Duration) { timedOut = true })
	s.At(time.Second, func(time.Duration) { timeout.Cancel() })
	s.Run()
	if timedOut {
		t.Fatal("timeout fired despite response arriving first")
	}
}
