package bulk

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"dnscontext/internal/dnsserver"
	"dnscontext/internal/dnswire"
	"dnscontext/internal/trace"
)

// The live path: the same feed → coalesce → output pipeline, but the
// exchange is a real wire exchange against a running dnsserver. There is
// no determinism contract here — the kernel scheduler, the socket
// buffers, and the server's shedding decide outcomes — which is exactly
// the point: this is the load generator that exercises the hardened
// server far beyond `make soak`.

// LiveExchanger is the wire dependency of RunLive: one blocking exchange
// per call, safe for arbitrary concurrency. *dnsserver.ClientPool is the
// production implementation (sharded UDP sockets); tcpExchanger wraps
// the per-connection TCP client; tests substitute counters.
type LiveExchanger interface {
	Query(ctx context.Context, name string, qtype dnswire.Type) (*dnswire.Message, error)
}

// TCPExchanger adapts the one-connection-per-query TCP client to the
// engine. Retries follow the QueryTCP contract: timeouts retry,
// mid-exchange resets do not.
type TCPExchanger struct {
	Client *dnsserver.Client
}

// Query performs one TCP exchange. ctx is honored only between
// attempts (the underlying client uses deadlines, not contexts).
func (t *TCPExchanger) Query(ctx context.Context, name string, qtype dnswire.Type) (*dnswire.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return t.Client.QueryTCP(name, qtype)
}

// defaultLiveConcurrency bounds in-flight queries when Options leaves
// Concurrency zero on the live path.
const defaultLiveConcurrency = 128

// RunLive streams src against a live exchanger with opts.Concurrency
// workers (each holding at most one query in flight) and returns the run
// summary. Output order is completion order; Result.Index makes the
// stream canonically sortable. Queries for the same (name, type) that
// overlap in flight share one wire exchange unless opts.NoCoalesce.
func RunLive(ctx context.Context, src Source, ex LiveExchanger, opts Options) (*Summary, error) {
	start := time.Now()
	workers := opts.Concurrency
	if workers <= 0 {
		workers = defaultLiveConcurrency
	}
	met := newEngMetrics(opts.Metrics)
	out := newResultWriter(opts.Output)
	sum := &summarizer{}

	// Checkpoint boot: load prior progress (resume), truncate the output
	// back to the recorded offset, and couple the completed-index tracker
	// into the writer.
	var ckCfg CheckpointConfig
	checkpointing := opts.Checkpoint != nil && opts.Checkpoint.Path != ""
	if checkpointing {
		ckCfg = opts.Checkpoint.withDefaults()
		tracker := newScanTracker()
		if ckCfg.Resume {
			snap, err := loadScanCheckpoint(ckCfg.Path)
			if err != nil {
				return nil, err
			}
			if snap != nil {
				if snap.FeedSig != ckCfg.FeedSig {
					return nil, fmt.Errorf("bulk: checkpoint %s records feed %016x, this run feeds %016x",
						ckCfg.Path, snap.FeedSig, ckCfg.FeedSig)
				}
				if ckCfg.File == nil {
					return nil, errors.New("bulk: resume requires CheckpointConfig.File (the output file to truncate)")
				}
				// Discard the torn tail past the last checkpoint: lines beyond
				// the offset belong to indices the checkpoint does not cover,
				// and the rerun will emit them again.
				if err := ckCfg.File.Truncate(snap.OutputOffset); err != nil {
					return nil, fmt.Errorf("bulk: truncating output for resume: %w", err)
				}
				if _, err := ckCfg.File.Seek(snap.OutputOffset, io.SeekStart); err != nil {
					return nil, fmt.Errorf("bulk: seeking output for resume: %w", err)
				}
				tracker.seed(snap.Watermark, snap.Extras)
				out.base = snap.OutputOffset
			} else if ckCfg.File != nil {
				// No checkpoint on disk (first run, or the prior run completed
				// and removed it): this is a fresh scan, but the caller opened
				// the output without O_TRUNC — resume must preserve prior
				// output until the checkpoint says how much is good. With
				// nothing to keep, truncate explicitly; otherwise a shorter
				// rerun would overwrite the old file from the front and leave
				// its stale tail dangling past the new last line.
				if err := ckCfg.File.Truncate(0); err != nil {
					return nil, fmt.Errorf("bulk: truncating output for fresh run: %w", err)
				}
				if _, err := ckCfg.File.Seek(0, io.SeekStart); err != nil {
					return nil, fmt.Errorf("bulk: seeking output for fresh run: %w", err)
				}
			}
		}
		out.tracker = tracker
	}
	// The run context is cancelled on a sticky output error so the feeder
	// (which blocks sending tasks) unwinds instead of waiting on workers
	// that have stopped draining.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	co := newCoalescer(ctx)

	type task struct {
		idx uint64
		q   Query
	}
	tasks := make(chan task, workers)
	var (
		wg       sync.WaitGroup
		writeErr error
		errOnce  sync.Once
	)
	fail := func(err error) {
		errOnce.Do(func() {
			writeErr = err
			cancel()
		})
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			lane := sum.newSink(0)
			defer lane.flush()
			for t := range tasks {
				r := Result{Index: t.idx, Name: t.q.Name, Type: t.q.Type}
				met.inflight.Add(1)
				began := time.Now()
				if opts.NoCoalesce {
					msg, err := ex.Query(ctx, t.q.Name, t.q.Type)
					fillLive(&r, msg, err, 0, false)
				} else {
					res, coalesced, err := co.do(ctx, t.q, func(runCtx context.Context) (*dnswire.Message, int, error) {
						msg, err := ex.Query(runCtx, t.q.Name, t.q.Type)
						return msg, 0, err
					})
					if err != nil {
						fillLive(&r, nil, err, 0, coalesced)
					} else {
						fillLive(&r, res.msg, res.err, res.attempts, coalesced)
					}
				}
				r.Duration = time.Since(began)
				met.inflight.Add(-1)
				// A query aborted by run cancellation never completed: no
				// line, no accounting. On a checkpointed run the resume
				// re-pays it — writing it here would freeze a transient
				// cancellation artifact into the output as an ERROR.
				if r.Err != nil && errors.Is(r.Err, context.Canceled) && ctx.Err() != nil {
					return
				}
				met.observe(&r)
				lane.observe(&r)
				if err := out.write(&r); err != nil {
					fail(err)
					return
				}
				if ctx.Err() != nil {
					return
				}
			}
		}()
	}

	// The periodic checkpointer: snapshot (tracker, offset) consistently
	// and persist. Best-effort per tick; the final save below reports the
	// run's last word.
	var ckStop chan struct{}
	var ckDone chan struct{}
	if checkpointing {
		ckStop = make(chan struct{})
		ckDone = make(chan struct{})
		go func() {
			defer close(ckDone)
			tick := time.NewTicker(ckCfg.Interval)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					_ = saveScanProgress(out, ckCfg)
				case <-ckStop:
					return
				}
			}
		}()
	}

	var feedErr error
	var n uint64
feed:
	for src.Scan() {
		q := src.Query()
		idx := n
		n++
		if out.tracker != nil && out.tracker.done(idx) {
			continue // completed in a previous run; its line is already on disk
		}
		select {
		case tasks <- task{idx: idx, q: q}:
		case <-ctx.Done():
			feedErr = ctx.Err()
			break feed
		}
	}
	if feedErr == nil {
		feedErr = src.Err()
	}
	close(tasks)
	wg.Wait()
	if checkpointing {
		close(ckStop)
		<-ckDone
	}
	// writeErr wins: an output failure cancels the run context, so the
	// feeder's context.Canceled is a symptom, not the cause.
	if writeErr != nil {
		return nil, writeErr
	}
	flushErr := out.flush()
	interrupted := feedErr != nil || ctx.Err() != nil
	if checkpointing {
		if interrupted && flushErr == nil {
			// Persist final progress so a resume re-pays as little as
			// possible.
			_ = saveScanProgress(out, ckCfg)
		} else if !interrupted && flushErr == nil {
			// Clean completion: the checkpoint has served its purpose.
			_ = os.Remove(ckCfg.Path)
		}
	}
	if flushErr != nil {
		return nil, flushErr
	}
	skipped := 0
	if f, ok := src.(*Feed); ok {
		skipped = f.Stats().Skipped
	}
	s := sum.finish(time.Since(start), skipped)
	if feedErr != nil {
		// Interrupted runs keep their accounting: the partial summary
		// rides alongside the error (SIGINT still prints what was done).
		return s, feedErr
	}
	if err := ctx.Err(); err != nil {
		return s, err
	}
	return s, nil
}

// saveScanProgress persists one consistent progress snapshot.
func saveScanProgress(out *resultWriter, cfg CheckpointConfig) error {
	watermark, extras, offset, err := out.checkpointSnapshot()
	if err != nil {
		return err
	}
	return saveScanCheckpoint(cfg.Path, &ScanCheckpoint{
		FeedSig:      cfg.FeedSig,
		Watermark:    watermark,
		Extras:       extras,
		OutputOffset: offset,
	})
}

// fillLive classifies one live exchange outcome into the result.
func fillLive(r *Result, msg *dnswire.Message, err error, attempts int, coalesced bool) {
	r.Coalesced = coalesced
	r.Attempts = attempts
	if r.Attempts == 0 {
		r.Attempts = 1
	}
	if err != nil {
		r.Err = err
		// Timeout and client-side ID exhaustion get their own statuses —
		// "the server never answered" and "we couldn't even ask" are
		// different failures to a scan operator. Everything else —
		// transport errors, encode failures, circuit-open, cancellation —
		// is StatusError.
		switch {
		case errors.Is(err, dnsserver.ErrTimeout):
			r.Status = StatusTimeout
		case errors.Is(err, dnsserver.ErrPoolBusy):
			r.Status = StatusBusy
		default:
			r.Status = StatusError
		}
		return
	}
	r.RCode = uint8(msg.Header.RCode)
	r.Status = statusOfRCode(r.RCode)
	n := 0
	for i := range msg.Answers {
		if isAddrAnswer(&msg.Answers[i]) {
			n++
		}
	}
	if n == 0 {
		return
	}
	r.Answers = make([]trace.Answer, 0, n)
	for i := range msg.Answers {
		if rr := &msg.Answers[i]; isAddrAnswer(rr) {
			r.Answers = append(r.Answers, trace.Answer{
				Addr: rr.Addr,
				TTL:  time.Duration(rr.TTL) * time.Second,
			})
		}
	}
}

// isAddrAnswer reports whether rr is an address answer that goes into
// Result.Answers.
func isAddrAnswer(rr *dnswire.RR) bool {
	return (rr.Type == dnswire.TypeA || rr.Type == dnswire.TypeAAAA) && rr.Addr.IsValid()
}
