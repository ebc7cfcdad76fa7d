// Package parallel provides the concurrency building blocks behind the
// analysis pipeline: a bounded worker pool with cooperative cancellation
// (ForEach / ForEachWorker), producer/consumer pipelines (Stream, and
// OrderedStream, which delivers results in emission order), and
// contiguous chunking for order-preserving merges (Chunks).
//
// Determinism is the callers' contract, and the package keeps what they
// need of it: ForEach runs every index exactly once, so results stored
// by index and merged in index order reproduce the sequential result no
// matter how the scheduler interleaved the workers; OrderedStream hands
// results over in the order their items were produced; and Chunks'
// ranges, merged in slice order, reproduce a left-to-right pass.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: n itself when positive,
// otherwise GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach invokes fn(i) for every i in [0, n) using up to workers
// goroutines (0 means GOMAXPROCS). It returns the first error any fn
// returns, or the context's error if ctx is cancelled; remaining items
// are skipped in either case. With one worker the items run in index
// order on the calling goroutine.
func ForEach(ctx context.Context, workers, n int, fn func(int) error) error {
	return ForEachWorker(ctx, workers, n, func(_, i int) error { return fn(i) })
}

// ForEachWorker is ForEach that also tells fn which worker runs item i:
// w is in [0, min(Workers(workers), n)), and one worker runs its items
// one at a time, so per-worker state indexed by w (a scratch buffer
// reused across items) needs no locking.
func ForEachWorker(ctx context.Context, workers, n int, fn func(w, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(g, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Stream overlaps production with consumption: produce runs on its own
// goroutine, handing items through a channel with the given buffer,
// while up to `workers` goroutines (0 means GOMAXPROCS) drain it. It is
// the pipeline shape behind the out-of-core analyzer — the producer
// reads the next spill partition from disk while consumers classify the
// previous one — but it is generic: any "read ahead while workers
// chew" stage fits.
//
// The first error from produce or any consume cancels everything and is
// returned; emit returns a non-nil error once the stream is cancelled
// so a blocked producer unwinds promptly. Consumption order is
// unspecified; callers needing deterministic results must fold
// commutatively or reorder downstream.
func Stream[T any](ctx context.Context, workers, buffer int, produce func(emit func(T) error) error, consume func(T) error) error {
	if buffer < 0 {
		buffer = 0
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	ch := make(chan T, buffer)
	var prodWG sync.WaitGroup
	prodWG.Add(1)
	go func() {
		defer prodWG.Done()
		defer close(ch)
		emit := func(v T) error {
			select {
			case ch <- v:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		if err := produce(emit); err != nil {
			fail(err)
		}
	}()

	w := Workers(workers)
	var consWG sync.WaitGroup
	consWG.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer consWG.Done()
			for v := range ch {
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				if err := consume(v); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	prodWG.Wait()
	consWG.Wait()
	return firstErr
}

// OrderedStream is Stream with deterministic delivery: produce emits
// items from its own goroutine, up to `workers` goroutines transform
// each item with work, and consume receives every result on the
// calling goroutine in exactly emission order — while later items are
// still being produced and transformed. It is the shape behind
// parallel trace ingest: chunk parsing fans out, but the merge that
// applies error budgets and interns symbols must see chunks in input
// order for the result to be bit-identical to a serial scan.
//
// ahead bounds the in-flight window (items emitted but not yet
// consumed); it is raised to at least the worker count so the pool can
// stay busy. The first error from work or consume cancels the stream
// and is returned. An error from produce stops production but does not
// cancel: results already emitted are still transformed and consumed in
// order before the error is returned — the contract a scanner-shaped
// producer needs, where records before a read error remain valid. When
// both fail, the work/consume error wins.
func OrderedStream[T, R any](ctx context.Context, workers, ahead int, produce func(emit func(T) error) error, work func(T) (R, error), consume func(R) error) error {
	w := Workers(workers)
	if ahead < w {
		ahead = w
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	type job struct {
		seq  int
		item T
	}
	type done struct {
		seq int
		res R
	}
	// sem admits at most `ahead` in-flight items; results has the same
	// capacity, so a worker's send below can never block — even when the
	// consumer has stopped draining on an error path.
	sem := make(chan struct{}, ahead)
	jobs := make(chan job)
	results := make(chan done, ahead)
	prodCount := make(chan int, 1)

	var prodErr error
	var prodWG sync.WaitGroup
	prodWG.Add(1)
	go func() {
		defer prodWG.Done()
		seq := 0
		emit := func(item T) error {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return ctx.Err()
			}
			select {
			case jobs <- job{seq: seq, item: item}:
				seq++
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		prodErr = produce(emit)
		close(jobs)
		prodCount <- seq
	}()

	var workWG sync.WaitGroup
	workWG.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer workWG.Done()
			for j := range jobs {
				if ctx.Err() != nil {
					return
				}
				r, err := work(j.item)
				if err != nil {
					fail(err)
					return
				}
				results <- done{seq: j.seq, res: r}
			}
		}()
	}

	// Reassemble in sequence order on the calling goroutine.
	pending := make(map[int]R)
	nextSeq, total := 0, -1
	consumeFailed := false
loop:
	for total < 0 || nextSeq < total {
		select {
		case d := <-results:
			pending[d.seq] = d.res
			for {
				r, ok := pending[nextSeq]
				if !ok {
					break
				}
				delete(pending, nextSeq)
				nextSeq++
				<-sem
				if !consumeFailed {
					if err := consume(r); err != nil {
						fail(err)
						consumeFailed = true
					}
				}
			}
		case n := <-prodCount:
			total = n
		case <-ctx.Done():
			break loop
		}
	}
	prodWG.Wait()
	workWG.Wait()
	if firstErr != nil {
		return firstErr
	}
	return prodErr
}

// Range is a half-open index interval [Lo, Hi).
type Range struct{ Lo, Hi int }

// Chunks splits [0, n) into at most parts contiguous ranges of
// near-equal size (never empty). Merging per-chunk results in slice
// order reproduces a sequential left-to-right pass exactly.
func Chunks(n, parts int) []Range {
	if n <= 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([]Range, 0, parts)
	lo := 0
	for p := 0; p < parts; p++ {
		size := (n - lo) / (parts - p)
		out = append(out, Range{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}
