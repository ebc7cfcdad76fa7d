package parallel

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachVisitsEveryIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 0} {
		n := 123
		seen := make([]atomic.Int32, n)
		err := ForEach(context.Background(), workers, n, func(i int) error {
			seen[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range seen {
			if got := seen[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(context.Background(), 4, 0, func(int) error {
		t.Fatal("fn called for empty range")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachPropagatesFirstError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := ForEach(context.Background(), workers, 100, func(i int) error {
			if i == 17 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, boom)
		}
	}
}

func TestForEachCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int32
	err := ForEach(ctx, 4, 1000, func(int) error {
		calls.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A pre-cancelled context may let a few in-flight items through, but
	// must not run anywhere near the full range.
	if calls.Load() > 8 {
		t.Fatalf("%d items ran under a cancelled context", calls.Load())
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, max atomic.Int32
	err := ForEach(context.Background(), workers, 200, func(int) error {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if max.Load() > workers {
		t.Fatalf("observed %d concurrent workers, limit %d", max.Load(), workers)
	}
}

// TestForEachWorkerOwnsItsIndex checks ForEachWorker's contract: worker
// indices stay below the pool width, every item runs once, and no two
// items run on the same worker index at the same time.
func TestForEachWorkerOwnsItsIndex(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		var busy [8]atomic.Int32
		var seen [300]atomic.Int32
		err := ForEachWorker(context.Background(), workers, len(seen), func(w, i int) error {
			if w < 0 || w >= workers {
				t.Errorf("workers=%d: worker index %d", workers, w)
				return nil
			}
			if busy[w].Add(1) != 1 {
				t.Errorf("workers=%d: worker %d runs two items at once", workers, w)
			}
			seen[i].Add(1)
			busy[w].Add(-1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if n := seen[i].Load(); n != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, n)
			}
		}
	}
}

func TestChunksCoverContiguously(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{
		{10, 3}, {3, 10}, {1, 1}, {100, 7}, {0, 4},
	} {
		chunks := Chunks(tc.n, tc.parts)
		if tc.n == 0 {
			if chunks != nil {
				t.Fatalf("Chunks(0, %d) = %v", tc.parts, chunks)
			}
			continue
		}
		lo := 0
		for _, c := range chunks {
			if c.Lo != lo || c.Hi <= c.Lo {
				t.Fatalf("Chunks(%d, %d): bad range %+v after %d", tc.n, tc.parts, c, lo)
			}
			lo = c.Hi
		}
		if lo != tc.n {
			t.Fatalf("Chunks(%d, %d) covers [0, %d)", tc.n, tc.parts, lo)
		}
		if want := tc.parts; tc.n < tc.parts {
			want = tc.n
			if len(chunks) != want {
				t.Fatalf("Chunks(%d, %d) has %d parts", tc.n, tc.parts, len(chunks))
			}
		}
	}
}

// TestStreamConsumesEverything checks every produced item is consumed
// exactly once, at several worker counts and buffer sizes.
func TestStreamConsumesEverything(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, buffer := range []int{0, 1, 16} {
			var sum atomic.Int64
			produce := func(emit func(int) error) error {
				for i := 1; i <= 100; i++ {
					if err := emit(i); err != nil {
						return err
					}
				}
				return nil
			}
			consume := func(v int) error {
				sum.Add(int64(v))
				return nil
			}
			if err := Stream(context.Background(), workers, buffer, produce, consume); err != nil {
				t.Fatalf("workers=%d buffer=%d: %v", workers, buffer, err)
			}
			if got := sum.Load(); got != 5050 {
				t.Errorf("workers=%d buffer=%d: consumed sum %d, want 5050", workers, buffer, got)
			}
		}
	}
}

// TestStreamOverlapsProducerAndConsumer checks the defining property:
// the producer can run ahead of consumption by the buffer's depth
// instead of waiting for each item to finish.
func TestStreamOverlapsProducerAndConsumer(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	produced := make(chan int, 16)
	produce := func(emit func(int) error) error {
		for i := 0; i < 4; i++ {
			if err := emit(i); err != nil {
				return err
			}
			produced <- i
		}
		close(produced)
		return nil
	}
	var once sync.Once
	consume := func(v int) error {
		once.Do(func() { close(started) })
		<-release
		return nil
	}
	done := make(chan error, 1)
	go func() {
		done <- Stream(context.Background(), 1, 8, produce, consume)
	}()
	<-started
	// With the lone consumer blocked, the producer must still drain its
	// loop into the buffer.
	for i := 0; i < 4; i++ {
		select {
		case <-produced:
		case <-time.After(5 * time.Second):
			t.Fatal("producer blocked behind a stalled consumer despite buffer capacity")
		}
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestStreamConsumerErrorCancelsProducer checks a consumer error
// surfaces as the stream's error and unblocks a mid-emit producer.
func TestStreamConsumerErrorCancelsProducer(t *testing.T) {
	sentinel := errors.New("consumer failed")
	produce := func(emit func(int) error) error {
		for i := 0; ; i++ {
			if err := emit(i); err != nil {
				return err // cancellation unwinds the producer
			}
		}
	}
	consume := func(v int) error { return sentinel }
	if err := Stream(context.Background(), 2, 0, produce, consume); !errors.Is(err, sentinel) {
		t.Fatalf("stream error %v, want %v", err, sentinel)
	}
}

// TestStreamProducerErrorPropagates checks a producer error is the
// stream's result even when consumers finish cleanly.
func TestStreamProducerErrorPropagates(t *testing.T) {
	sentinel := errors.New("producer failed")
	produce := func(emit func(int) error) error {
		if err := emit(1); err != nil {
			return err
		}
		return sentinel
	}
	if err := Stream(context.Background(), 2, 4, produce, func(int) error { return nil }); !errors.Is(err, sentinel) {
		t.Fatalf("stream error %v, want %v", err, sentinel)
	}
}

// TestStreamCancelledContext checks cancellation aborts both sides.
func TestStreamCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Stream(ctx, 2, 0,
		func(emit func(int) error) error {
			for i := 0; ; i++ {
				if err := emit(i); err != nil {
					return err
				}
			}
		},
		func(int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("stream error %v, want context.Canceled", err)
	}
}

// TestOrderedStreamDeliversInOrder checks the core contract: results
// reach consume in emission order regardless of worker interleaving,
// with production, transformation, and consumption overlapped.
func TestOrderedStreamDeliversInOrder(t *testing.T) {
	const n = 500
	var got []int
	err := OrderedStream(context.Background(), 8, 4,
		func(emit func(int) error) error {
			for i := 0; i < n; i++ {
				if err := emit(i); err != nil {
					return err
				}
			}
			return nil
		},
		func(i int) (int, error) {
			if i%17 == 0 {
				time.Sleep(time.Millisecond) // jitter to scramble completion order
			}
			return i * 2, nil
		},
		func(r int) error {
			got = append(got, r)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("consumed %d of %d", len(got), n)
	}
	for i, r := range got {
		if r != i*2 {
			t.Fatalf("out of order at %d: got %d", i, r)
		}
	}
}

// TestOrderedStreamProducerErrorKeepsPrefix: a failing producer (the
// scanner-shaped case — read error after some records) must still have
// every emitted item transformed and consumed, in order, before the
// error surfaces.
func TestOrderedStreamProducerErrorKeepsPrefix(t *testing.T) {
	boom := errors.New("boom")
	var got []int
	err := OrderedStream(context.Background(), 4, 2,
		func(emit func(int) error) error {
			for i := 0; i < 20; i++ {
				if err := emit(i); err != nil {
					return err
				}
			}
			return boom
		},
		func(i int) (int, error) { return i, nil },
		func(r int) error { got = append(got, r); return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(got) != 20 {
		t.Fatalf("consumed %d of 20 pre-error items", len(got))
	}
	for i, r := range got {
		if r != i {
			t.Fatalf("out of order at %d: got %d", i, r)
		}
	}
}

// TestOrderedStreamConsumeErrorCancels: a consume error wins over the
// producer and stops the stream promptly.
func TestOrderedStreamConsumeErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var emitted atomic.Int64
	err := OrderedStream(context.Background(), 2, 2,
		func(emit func(int) error) error {
			for i := 0; ; i++ {
				if err := emit(i); err != nil {
					return err
				}
				emitted.Add(1)
			}
		},
		func(i int) (int, error) { return i, nil },
		func(r int) error {
			if r >= 3 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestOrderedStreamWorkErrorPropagates: the first work error cancels
// and is returned.
func TestOrderedStreamWorkErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	err := OrderedStream(context.Background(), 4, 4,
		func(emit func(int) error) error {
			for i := 0; i < 100; i++ {
				if err := emit(i); err != nil {
					return err
				}
			}
			return nil
		},
		func(i int) (int, error) {
			if i == 7 {
				return 0, boom
			}
			return i, nil
		},
		func(int) error { return nil })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestOrderedStreamEmpty: a producer that emits nothing completes
// cleanly.
func TestOrderedStreamEmpty(t *testing.T) {
	err := OrderedStream(context.Background(), 4, 4,
		func(emit func(int) error) error { return nil },
		func(i int) (int, error) { return i, nil },
		func(int) error { t.Fatal("consume called"); return nil })
	if err != nil {
		t.Fatal(err)
	}
}
