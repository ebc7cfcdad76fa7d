package bulk

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnscontext/internal/dnswire"
	"dnscontext/internal/obs"
	"dnscontext/internal/trace"
)

// gateExchanger is a LiveExchanger whose exchanges block until released,
// counting every wire call — the instrument for proving that N
// concurrent same-name lookups cost exactly one exchange.
type gateExchanger struct {
	calls   atomic.Int64
	release chan struct{}
	msg     *dnswire.Message
	err     error
}

func newGateExchanger() *gateExchanger {
	msg := &dnswire.Message{}
	msg.Header.Response = true
	msg.Questions = []dnswire.Question{{Name: "shared.example", Type: dnswire.TypeA, Class: 1}}
	return &gateExchanger{release: make(chan struct{}), msg: msg}
}

func (g *gateExchanger) Query(ctx context.Context, name string, qtype dnswire.Type) (*dnswire.Message, error) {
	g.calls.Add(1)
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.msg, g.err
}

func TestCoalescerSharesOneExchange(t *testing.T) {
	g := newGateExchanger()
	co := newCoalescer(context.Background())

	const n = 16
	var wg sync.WaitGroup
	results := make([]flightResult, n)
	coalesced := make([]bool, n)
	errs := make([]error, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			defer wg.Done()
			results[i], coalesced[i], errs[i] = co.do(context.Background(), Query{Name: "shared.example", Type: dnswire.TypeA},
				func(runCtx context.Context) (*dnswire.Message, int, error) {
					msg, err := g.Query(runCtx, "shared.example", dnswire.TypeA)
					return msg, 1, err
				})
		}()
	}

	// Wait until the leader is parked in the exchange and every other
	// goroutine has subscribed, then release the wire.
	deadline := time.Now().Add(2 * time.Second)
	for co.Hits() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d subscribers joined", co.Hits())
		}
		time.Sleep(time.Millisecond)
	}
	close(g.release)
	wg.Wait()

	if got := g.calls.Load(); got != 1 {
		t.Fatalf("wire exchanges = %d, want 1", got)
	}
	leaders := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("subscriber %d error: %v", i, errs[i])
		}
		if results[i].msg != g.msg {
			t.Fatalf("subscriber %d got %+v, want the shared message", i, results[i])
		}
		if !coalesced[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d, want exactly 1", leaders)
	}
	if co.Hits() != n-1 {
		t.Fatalf("hits = %d, want %d", co.Hits(), n-1)
	}
}

func TestCoalescerCancelDoesNotStarve(t *testing.T) {
	g := newGateExchanger()
	co := newCoalescer(context.Background())
	key := Query{Name: "shared.example", Type: dnswire.TypeA}
	fn := func(runCtx context.Context) (*dnswire.Message, int, error) {
		msg, err := g.Query(runCtx, "shared.example", dnswire.TypeA)
		return msg, 1, err
	}

	// Leader parks in the exchange; wait until it is on the wire so the
	// goroutines below can only ever join as subscribers.
	leaderDone := make(chan flightResult, 1)
	go func() {
		res, _, _ := co.do(context.Background(), key, fn)
		leaderDone <- res
	}()
	for deadline := time.Now().Add(2 * time.Second); g.calls.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("leader never reached the wire")
		}
		time.Sleep(time.Millisecond)
	}
	waitHits := func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for co.Hits() < want {
			if time.Now().After(deadline) {
				t.Fatalf("hits = %d, want %d", co.Hits(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// One subscriber with a cancellable context, one patient subscriber.
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, _, err := co.do(ctx, key, fn)
		cancelled <- err
	}()
	patient := make(chan flightResult, 1)
	go func() {
		res, _, _ := co.do(context.Background(), key, fn)
		patient <- res
	}()
	waitHits(2)

	// Cancelling one subscriber returns its ctx error immediately...
	cancel()
	select {
	case err := <-cancelled:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled subscriber err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled subscriber never returned")
	}

	// ...while the flight keeps going for leader and patient subscriber.
	close(g.release)
	for _, ch := range []chan flightResult{leaderDone, patient} {
		select {
		case res := <-ch:
			if res.msg != g.msg {
				t.Fatalf("survivor got %+v", res)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("survivor starved after another subscriber cancelled")
		}
	}
	if got := g.calls.Load(); got != 1 {
		t.Fatalf("wire exchanges = %d, want 1", got)
	}
}

func TestCoalescerSequentialFlightsDoNotShare(t *testing.T) {
	// Nothing outlives a flight: back-to-back lookups for the same key
	// each pay their own exchange.
	var calls atomic.Int64
	co := newCoalescer(context.Background())
	for i := 0; i < 3; i++ {
		_, coalesced, err := co.do(context.Background(), Query{Name: "k", Type: dnswire.TypeA}, func(context.Context) (*dnswire.Message, int, error) {
			calls.Add(1)
			return &dnswire.Message{}, 1, nil
		})
		if err != nil || coalesced {
			t.Fatalf("round %d: coalesced=%v err=%v", i, coalesced, err)
		}
	}
	if calls.Load() != 3 {
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
}

func TestRunLiveCoalescesConcurrentDuplicates(t *testing.T) {
	g := newGateExchanger()
	// Feed of identical names, enough workers to hold them all in flight.
	const n = 32
	feed := strings.Repeat("shared.example\n", n)
	src := NewFeed(strings.NewReader(feed), dnswire.TypeA, trace.ErrorPolicy{})

	var buf bytes.Buffer
	reg := obs.NewRegistry()
	done := make(chan struct{})
	var sum *Summary
	var runErr error
	go func() {
		defer close(done)
		sum, runErr = RunLive(context.Background(), src, g, Options{Concurrency: n, Metrics: reg, Output: &buf})
	}()

	// Wait until every worker holds a lookup in flight — one leader on
	// the wire, the rest subscribed to it — then release the gate. calls
	// staying at 1 while 31 lookups wait is the coalescing guarantee.
	inflight := reg.Gauge("dnsscan_inflight", "")
	deadline := time.Now().Add(5 * time.Second)
	for inflight.Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d lookups in flight", inflight.Value())
		}
		time.Sleep(time.Millisecond)
	}
	// A worker is "in flight" a hair before it registers with the
	// coalescer; give the last ones a beat to subscribe.
	time.Sleep(10 * time.Millisecond)
	close(g.release)
	<-done

	if runErr != nil {
		t.Fatal(runErr)
	}
	if g.calls.Load() != 1 {
		t.Fatalf("wire exchanges = %d, want 1 for %d concurrent duplicates", g.calls.Load(), n)
	}
	if sum.Queries != n {
		t.Fatalf("summary queries = %d, want %d", sum.Queries, n)
	}
	if sum.Coalesced != n-1 {
		t.Fatalf("summary coalesced = %d, want %d", sum.Coalesced, n-1)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != n {
		t.Fatalf("output lines = %d, want %d", lines, n)
	}
	if sum.Count(StatusNoError) != n {
		t.Fatalf("status breakdown %+v", sum.ByStatus)
	}
}

func TestRunLiveNoCoalesce(t *testing.T) {
	var calls atomic.Int64
	ex := liveFunc(func(ctx context.Context, name string, qtype dnswire.Type) (*dnswire.Message, error) {
		calls.Add(1)
		msg := &dnswire.Message{}
		msg.Header.Response = true
		return msg, nil
	})
	src := NewFeed(strings.NewReader(strings.Repeat("same.example\n", 10)), dnswire.TypeA, trace.ErrorPolicy{})
	sum, err := RunLive(context.Background(), src, ex, Options{Concurrency: 4, NoCoalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 10 || sum.Coalesced != 0 {
		t.Fatalf("calls = %d coalesced = %d, want 10 and 0", calls.Load(), sum.Coalesced)
	}
}

// liveFunc adapts a function to LiveExchanger.
type liveFunc func(ctx context.Context, name string, qtype dnswire.Type) (*dnswire.Message, error)

func (f liveFunc) Query(ctx context.Context, name string, qtype dnswire.Type) (*dnswire.Message, error) {
	return f(ctx, name, qtype)
}
