package dnsserver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"dnscontext/internal/dnswire"
)

func TestPoolQueryOverRealUDP(t *testing.T) {
	_, zones, addr := startZoneServer(t)
	pool, err := NewClientPool(addr, ClientPoolConfig{Sockets: 2, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	name := zones.ByRank(0)
	resp, err := pool.Query(context.Background(), name.Host, dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.RCode != dnswire.RCodeNoError || !resp.Header.Authoritative {
		t.Fatalf("header %+v", resp.Header)
	}
	addrs := resp.AnswerAddrs()
	if len(addrs) != len(name.Addrs) || addrs[0] != name.Addrs[0] {
		t.Fatalf("answers %v, want %v", addrs, name.Addrs)
	}
}

func TestPoolConcurrentQueries(t *testing.T) {
	_, zones, addr := startZoneServer(t)
	pool, err := NewClientPool(addr, ClientPoolConfig{Sockets: 3, Timeout: 2 * time.Second, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Many goroutines through the shared sockets: every query must come
	// back matched to its own question despite the demux sharing IDs.
	const n = 64
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			name := zones.ByRank(i % 10)
			resp, err := pool.Query(context.Background(), name.Host, dnswire.TypeA)
			if err == nil && len(resp.Questions) > 0 &&
				dnswire.CanonicalName(resp.Questions[0].Name) != dnswire.CanonicalName(name.Host) {
				err = fmt.Errorf("answer for %q, asked %q", resp.Questions[0].Name, name.Host)
			}
			if err == nil && len(resp.AnswerAddrs()) == 0 {
				err = fmt.Errorf("no answers for %s", name.Host)
			}
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := pool.InFlight(); got != 0 {
		t.Fatalf("InFlight after drain = %d, want 0", got)
	}
}

func TestPoolTimeout(t *testing.T) {
	// A bound-but-silent socket: the pool must walk its retry ladder and
	// give up with ErrTimeout, not hang.
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("cannot bind loopback UDP: %v", err)
	}
	defer conn.Close()
	pool, err := NewClientPool(conn.LocalAddr().String(), ClientPoolConfig{
		Sockets: 1, Timeout: 50 * time.Millisecond, Retries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	start := time.Now()
	_, err = pool.Query(context.Background(), "silent.example", dnswire.TypeA)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < 90*time.Millisecond {
		t.Fatalf("gave up after %v, before the ladder ran", elapsed)
	}
}

func TestPoolContextCancel(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("cannot bind loopback UDP: %v", err)
	}
	defer conn.Close()
	pool, err := NewClientPool(conn.LocalAddr().String(), ClientPoolConfig{
		Sockets: 1, Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, err := pool.Query(ctx, "silent.example", dnswire.TypeA); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPoolCloseFailsWaiters(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("cannot bind loopback UDP: %v", err)
	}
	defer conn.Close()
	pool, err := NewClientPool(conn.LocalAddr().String(), ClientPoolConfig{
		Sockets: 2, Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			_, err := pool.Query(context.Background(), "silent.example", dnswire.TypeA)
			errs <- err
		}()
	}
	time.Sleep(30 * time.Millisecond) // let the queries park
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("waiter err = %v, want ErrPoolClosed", err)
		}
	}
	// Close is idempotent and queries after Close fail fast.
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Query(context.Background(), "x.example", dnswire.TypeA); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("post-close err = %v, want ErrPoolClosed", err)
	}
}

// TestPoolQuarantinesAbandonedIDs: a message ID whose waiter timed out
// must not be handed to a new query while its late response could still
// arrive — otherwise the demux delivers the old answer to the new
// waiter (spurious ErrMismatch, or a stale answer for a retry of the
// same name).
func TestPoolQuarantinesAbandonedIDs(t *testing.T) {
	s := &poolSock{pending: make(map[uint16]*poolCall)}
	id, _, err := s.register()
	if err != nil {
		t.Fatal(err)
	}
	s.abandon(id)

	// Steer the allocator straight at the quarantined slot: it must walk
	// past it, not reuse it.
	s.nextID = id - 1
	id2, _, err := s.register()
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatal("abandoned ID reused while quarantined")
	}
	s.unregister(id2)

	// Once the grace period has elapsed, the slot is reclaimed in place.
	s.mu.Lock()
	s.pending[id].abandoned = time.Now().Add(-idQuarantine - time.Second).UnixNano()
	s.mu.Unlock()
	s.nextID = id - 1
	id3, call, err := s.register()
	if err != nil {
		t.Fatal(err)
	}
	if id3 != id {
		t.Fatalf("expired slot not reclaimed: got %d, want %d", id3, id)
	}

	// The late response arriving ends the quarantine early: the reader
	// deletes on delivery, and the parked cap-1 channel never blocks it.
	s.abandon(id3)
	s.mu.Lock()
	late := s.pending[id3]
	delete(s.pending, id3)
	s.mu.Unlock()
	if late != call {
		t.Fatal("pending table lost the abandoned call")
	}
	late.ch <- &dnswire.Message{}
	s.nextID = id3 - 1
	id4, _, err := s.register()
	if err != nil {
		t.Fatal(err)
	}
	if id4 != id3 {
		t.Fatalf("delivered slot not immediately reusable: got %d, want %d", id4, id3)
	}
}

func TestPoolNoGoroutineLeak(t *testing.T) {
	_, zones, addr := startZoneServer(t)
	before := runtime.NumGoroutine()

	pool, err := NewClientPool(addr, ClientPoolConfig{Sockets: 4, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = pool.Query(context.Background(), zones.ByRank(i%10).Host, dnswire.TypeA)
		}()
	}
	wg.Wait()
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}

	// The reader goroutines must be gone once Close returns; allow the
	// runtime a beat to reap exiting goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines %d, baseline %d — pool leaked readers", runtime.NumGoroutine(), before)
}

// TestAttemptTimeoutLadder pins the fixed retry ladder's arithmetic,
// including the edges that historically invite off-by-one clamps: the
// product MaxTimeout·Backoff (the cap must bind, not the product),
// MaxTimeout below Timeout (every attempt, including the first, waits
// only MaxTimeout), and Backoff exactly 1.0 (a flat ladder, no drift).
func TestAttemptTimeoutLadder(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		name string
		cfg  ClientPoolConfig
		want []time.Duration // indexed by attempt
	}{
		{
			name: "plain exponential",
			cfg:  ClientPoolConfig{Timeout: ms(100), Backoff: 2},
			want: []time.Duration{ms(100), ms(200), ms(400), ms(800)},
		},
		{
			name: "cap binds mid-ladder, not MaxTimeout×Backoff",
			cfg:  ClientPoolConfig{Timeout: ms(100), Backoff: 3, MaxTimeout: ms(250)},
			want: []time.Duration{ms(100), ms(250), ms(250), ms(250)},
		},
		{
			name: "cap exactly hit stays at cap",
			cfg:  ClientPoolConfig{Timeout: ms(100), Backoff: 2, MaxTimeout: ms(200)},
			want: []time.Duration{ms(100), ms(200), ms(200)},
		},
		{
			name: "MaxTimeout below Timeout caps the first attempt too",
			cfg:  ClientPoolConfig{Timeout: ms(500), Backoff: 2, MaxTimeout: ms(200)},
			want: []time.Duration{ms(200), ms(200), ms(200)},
		},
		{
			name: "backoff exactly 1.0 is flat",
			cfg:  ClientPoolConfig{Timeout: ms(100), Backoff: 1.0, MaxTimeout: ms(800)},
			want: []time.Duration{ms(100), ms(100), ms(100), ms(100)},
		},
		{
			name: "backoff below 1 is defaulted to 1, not shrinking",
			cfg:  ClientPoolConfig{Timeout: ms(100), Backoff: 0.5},
			want: []time.Duration{ms(100), ms(100), ms(100)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg.withDefaults()
			for attempt, want := range tc.want {
				if got := cfg.attemptTimeout(attempt); got != want {
					t.Errorf("attempt %d: %v, want %v", attempt, got, want)
				}
			}
		})
	}
}

// TestAdaptiveTimeoutClamps pins the RTO-driven ladder: factor is
// max(Backoff, 2), the floor is minAdaptiveTimeout, and the ceiling is
// MaxTimeout (or Timeout when MaxTimeout is unset).
func TestAdaptiveTimeoutClamps(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		name    string
		cfg     ClientPoolConfig
		rto     time.Duration
		attempt int
		want    time.Duration
	}{
		{"floor lifts a tiny RTO", ClientPoolConfig{Timeout: ms(1000)}, ms(3), 0, ms(20)},
		{"first attempt is the raw RTO", ClientPoolConfig{Timeout: ms(1000)}, ms(50), 0, ms(50)},
		{"backoff 1 still doubles (factor max(Backoff,2))", ClientPoolConfig{Timeout: ms(1000), Backoff: 1}, ms(50), 1, ms(100)},
		{"backoff 3 beats the default factor", ClientPoolConfig{Timeout: ms(1000), Backoff: 3}, ms(50), 1, ms(150)},
		{"ceiling is Timeout when MaxTimeout unset", ClientPoolConfig{Timeout: ms(300)}, ms(100), 3, ms(300)},
		{"ceiling is MaxTimeout when set", ClientPoolConfig{Timeout: ms(300), MaxTimeout: ms(150)}, ms(100), 3, ms(150)},
		{"RTO above the ceiling is clamped down", ClientPoolConfig{Timeout: ms(200)}, ms(900), 0, ms(200)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg.withDefaults()
			if got := cfg.adaptiveTimeout(tc.rto, tc.attempt); got != tc.want {
				t.Errorf("adaptiveTimeout(%v, %d) = %v, want %v", tc.rto, tc.attempt, got, tc.want)
			}
		})
	}
}

// TestPoolAbandonedProbeReleased: a half-open probe admission abandoned
// without an outcome (here: ctx cancellation mid-flight; the same
// discipline covers hedge race losses and pool close) must return its
// slot. A leaked slot would pin the breaker half-open — allow has no
// other escape within OpenFor — turning every later query into
// ErrCircuitOpen after it burns its waiting budget.
func TestPoolAbandonedProbeReleased(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("cannot bind loopback UDP: %v", err)
	}
	defer conn.Close()
	// OpenFor far beyond the test horizon: the allow() backstop cannot
	// rescue a leaked slot here, so this fails if any abandon path skips
	// release.
	pool, err := NewClientPool(conn.LocalAddr().String(), ClientPoolConfig{
		Sockets: 1, Timeout: 100 * time.Millisecond, Retries: 0,
		Breaker: &BreakerConfig{FailureThreshold: 1, OpenFor: time.Hour, HalfOpenProbes: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Trip the breaker, then rewind its clock so probing may begin now.
	brk := pool.ups[0].brk
	brk.failure(false, time.Now().Add(-2*time.Hour))
	if got := brk.current(); got != breakerOpen {
		t.Fatalf("state = %v, want open", got)
	}

	// A probe is admitted, then abandoned mid-flight by cancellation.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	if _, err := pool.Query(ctx, "probe.example", dnswire.TypeA); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := brk.current(); got != breakerHalfOpen {
		t.Fatalf("state after abandoned probe = %v, want half-open", got)
	}

	// The slot must be free again: the next query is admitted as a probe
	// and times out against the silent server — not ErrCircuitOpen.
	if _, err := pool.Query(context.Background(), "next.example", dnswire.TypeA); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err after abandoned probe = %v, want ErrTimeout", err)
	}
}
