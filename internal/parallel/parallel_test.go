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

func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{1, 8} {
		out, err := Map(context.Background(), workers, 50, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapErrorDiscardsResults(t *testing.T) {
	boom := errors.New("boom")
	out, err := Map(context.Background(), 4, 10, func(i int) (int, error) {
		if i == 3 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) || out != nil {
		t.Fatalf("got (%v, %v), want (nil, boom)", out, err)
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

func TestShardByDeterministicOrder(t *testing.T) {
	keys := []string{"b", "a", "b", "c", "a", "b"}
	shards := ShardBy(len(keys), func(i int) string { return keys[i] })
	if len(shards) != 3 {
		t.Fatalf("got %d shards", len(shards))
	}
	// First-appearance order: b, a, c.
	wantKeys := []string{"b", "a", "c"}
	wantItems := [][]int32{{0, 2, 5}, {1, 4}, {3}}
	for s := range shards {
		if shards[s].Key != wantKeys[s] {
			t.Fatalf("shard %d key %q, want %q", s, shards[s].Key, wantKeys[s])
		}
		if len(shards[s].Items) != len(wantItems[s]) {
			t.Fatalf("shard %d items %v", s, shards[s].Items)
		}
		for j, it := range shards[s].Items {
			if it != wantItems[s][j] {
				t.Fatalf("shard %d items %v, want %v", s, shards[s].Items, wantItems[s])
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

// shardsEqual compares two shard partitions key by key, item by item.
func shardsEqual(a, b []Shard[int]) bool {
	if len(a) != len(b) {
		return false
	}
	for p := range a {
		if a[p].Key != b[p].Key || len(a[p].Items) != len(b[p].Items) {
			return false
		}
		for j := range a[p].Items {
			if a[p].Items[j] != b[p].Items[j] {
				return false
			}
		}
	}
	return true
}

// TestShardByParallelMatchesSerial is the determinism property behind
// the parallel shard build: for every worker count, ShardByParallel
// must reproduce ShardBy bit for bit — same shard order (first
// appearance), same ascending Items.
func TestShardByParallelMatchesSerial(t *testing.T) {
	// Keyspaces chosen to exercise: keys confined to one chunk, keys
	// spanning every chunk, a key appearing first in a late chunk, and
	// a single-key degenerate case.
	keyFns := map[string]func(int) int{
		"spread": func(i int) int { return i % 97 },
		"runs":   func(i int) int { return i / 1000 },
		"late-first": func(i int) int {
			if i < 9000 {
				return i % 7
			}
			return 1000 + i%11
		},
		"single": func(int) int { return 42 },
	}
	for name, key := range keyFns {
		n := 3 * minShardByChunk
		want := ShardBy(n, key)
		for _, w := range []int{1, 2, 3, 8} {
			got, err := ShardByParallel(context.Background(), w, n, key)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if !shardsEqual(want, got) {
				t.Fatalf("%s workers=%d: parallel shards differ from serial", name, w)
			}
		}
	}
}

// TestShardByParallelSmallFallsBack covers the sub-chunk-size input:
// the parallel path must quietly produce the serial result.
func TestShardByParallelSmall(t *testing.T) {
	key := func(i int) int { return i % 3 }
	want := ShardBy(10, key)
	got, err := ShardByParallel(context.Background(), 8, 10, key)
	if err != nil {
		t.Fatal(err)
	}
	if !shardsEqual(want, got) {
		t.Fatal("small-input parallel shards differ from serial")
	}
	if got, err := ShardByParallel(context.Background(), 4, 0, key); err != nil || got != nil {
		t.Fatalf("empty input: got %v, %v", got, err)
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
