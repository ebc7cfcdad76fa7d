package bulk

import (
	"context"
	"sync"

	"dnscontext/internal/dnswire"
)

// Singleflight-style in-flight coalescing for the live path. Concurrent
// queries for the same (name, type) share one wire exchange: the first
// joiner becomes the leader and performs the exchange, later joiners
// subscribe to its outcome. Unlike a cache, nothing outlives the flight
// — once the leader completes and broadcasts, the key is gone and the
// next query leads a fresh exchange.
//
// Per-subscriber timing is preserved by construction: the coalescer
// returns only the shared outcome; each caller measures its own wait.
// Cancellation is per-subscriber: the leader runs under the coalescer's
// run context (the engine's), not under any subscriber's, so one
// subscriber abandoning its wait can never starve the rest.

// flightResult is the outcome every subscriber of one exchange shares.
type flightResult struct {
	msg      *dnswire.Message
	err      error
	attempts int
}

// flight is one in-progress exchange.
type flight struct {
	done chan struct{} // closed by the leader after res is set
	res  flightResult
	subs int // joiners beyond the leader, under the coalescer lock
}

// coalescer deduplicates in-flight exchanges by (name, type). Query is
// comparable, so it keys the map as is, with no per-lookup key string.
type coalescer struct {
	runCtx context.Context
	mu     sync.Mutex
	flying map[Query]*flight
	hits   uint64
}

func newCoalescer(runCtx context.Context) *coalescer {
	return &coalescer{runCtx: runCtx, flying: make(map[Query]*flight)}
}

// do returns the outcome for key, either by leading the exchange (call
// fn once, under the run context) or by subscribing to the in-flight
// one. coalesced reports which happened. A subscriber whose ctx is
// cancelled gets ctx's error; the flight itself continues for the
// others.
func (c *coalescer) do(ctx context.Context, key Query, fn func(context.Context) (*dnswire.Message, int, error)) (res flightResult, coalesced bool, err error) {
	c.mu.Lock()
	if fl, ok := c.flying[key]; ok {
		fl.subs++
		c.hits++
		c.mu.Unlock()
		select {
		case <-fl.done:
			return fl.res, true, nil
		case <-ctx.Done():
			return flightResult{}, true, ctx.Err()
		}
	}
	fl := &flight{done: make(chan struct{})}
	c.flying[key] = fl
	c.mu.Unlock()

	msg, attempts, ferr := fn(c.runCtx)
	fl.res = flightResult{msg: msg, err: ferr, attempts: attempts}
	c.mu.Lock()
	delete(c.flying, key)
	c.mu.Unlock()
	close(fl.done)
	return fl.res, false, nil
}

// Hits returns the number of lookups that joined an existing flight.
func (c *coalescer) Hits() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}
