package bulk

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// resultWriter serializes the live path's results as JSONL, one line
// per completion. Encoding is hand-rolled into a reused buffer (see
// appendResult). The writer is safe for concurrent use: the live path's
// workers share it. The simulated path encodes in its parallel phase and
// writes whole batches itself (see simBatchBuf).
type resultWriter struct {
	mu  sync.Mutex
	w   *bufio.Writer
	buf []byte
	// Checkpoint coupling (live path only; both nil/zero otherwise).
	// tracker.complete runs under mu, in the same critical section that
	// hands the line to the buffered writer — the exactly-once invariant:
	// at any checkpoint, output[0:base+bytes] contains precisely the lines
	// of the tracker's completed indices, each once.
	tracker *scanTracker
	base    int64 // output offset this run started appending at (resume)
	bytes   int64 // bytes accepted by w since then
}

// newResultWriter wraps w; a nil w discards results.
func newResultWriter(w io.Writer) *resultWriter {
	if w == nil {
		w = io.Discard
	}
	return &resultWriter{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 512)}
}

// write emits one result line and, when checkpointing, marks its index
// complete in the same critical section.
func (rw *resultWriter) write(r *Result) error {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	rw.buf = appendResult(rw.buf[:0], r)
	n, err := rw.w.Write(rw.buf)
	rw.bytes += int64(n)
	if err == nil && rw.tracker != nil {
		rw.tracker.complete(r.Index)
	}
	return err
}

// checkpointSnapshot flushes the buffered writer and returns a
// consistent (tracker state, output offset) pair: every line for the
// returned indices is durably past the bufio layer and accounted for in
// the offset, and no line for any other index precedes it.
func (rw *resultWriter) checkpointSnapshot() (watermark uint64, extras []uint64, offset int64, err error) {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	if err := rw.w.Flush(); err != nil {
		return 0, nil, 0, err
	}
	watermark, extras = rw.tracker.snapshot()
	return watermark, extras, rw.base + rw.bytes, nil
}

// flush drains the buffered writer.
func (rw *resultWriter) flush() error {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	return rw.w.Flush()
}

// appendResult appends r's JSONL line (with trailing newline) to buf.
// Field order is fixed; default-false flags and empty collections are
// omitted, so the encoding is a pure deterministic function of the
// result — the property the simulated path's digest gate relies on, and
// what lets it encode a batch's lines in parallel. Names are
// charset-validated at ingest, so no field ever needs escaping, and the
// encoder allocates nothing per line.
func appendResult(buf []byte, r *Result) []byte {
	buf = append(buf, `{"i":`...)
	buf = strconv.AppendUint(buf, r.Index, 10)
	buf = append(buf, `,"name":"`...)
	buf = append(buf, r.Name...)
	buf = append(buf, `","type":"`...)
	buf = append(buf, r.Type.String()...)
	buf = append(buf, `","status":"`...)
	buf = append(buf, r.Status.String()...)
	buf = append(buf, `","rcode":`...)
	buf = strconv.AppendUint(buf, uint64(r.RCode), 10)
	buf = append(buf, `,"ms":`...)
	buf = appendMillis(buf, r.Duration)
	buf = append(buf, `,"attempts":`...)
	buf = strconv.AppendInt(buf, int64(r.Attempts), 10)
	if r.Cache {
		buf = append(buf, `,"cache":true`...)
	}
	if r.Coalesced {
		buf = append(buf, `,"coalesced":true`...)
	}
	if r.TCPFallback {
		buf = append(buf, `,"tcp":true`...)
	}
	if len(r.Answers) > 0 {
		buf = append(buf, `,"answers":[`...)
		for i, a := range r.Answers {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, `{"addr":"`...)
			buf = a.Addr.AppendTo(buf)
			buf = append(buf, `","ttl":`...)
			buf = strconv.AppendInt(buf, int64(a.TTL.Seconds()), 10)
			buf = append(buf, '}')
		}
		buf = append(buf, ']')
	}
	if r.Err != nil {
		buf = append(buf, `,"error":`...)
		buf = strconv.AppendQuote(buf, r.Err.Error())
	}
	buf = append(buf, '}', '\n')
	return buf
}

// exactMillisLimit bounds appendMillis's integer path: 2^50 ns, about
// 13 days.
const exactMillisLimit = 1 << 50

// appendMillis appends d in milliseconds with three decimals, the bytes
// of strconv.AppendFloat(buf, float64(d.Nanoseconds())/1e6, 'f', 3, 64),
// which for a fixed precision always takes strconv's slow exact path.
// The integer path rounds to the nearest microsecond instead. That is
// exact away from a tie: ns is an integer, so unless ns ≡ 500 (mod
// 1000) the true value ns/1e6 lies at least 1 ns (1e-6 ms) from the
// nearest rounding boundary, while the float64 quotient is within half
// an ulp of the true value, under 1.2e-7 ms below 2^50 ns. The float
// therefore rounds to the same three decimals as the true value. At a
// tie the float's own rounding error picks the side, and for negative or
// huge values the margin argument does not hold, so those take strconv.
func appendMillis(buf []byte, d time.Duration) []byte {
	ns := int64(d)
	if ns < 0 || ns >= exactMillisLimit || ns%1000 == 500 {
		return strconv.AppendFloat(buf, float64(ns)/1e6, 'f', 3, 64)
	}
	us := (ns + 500) / 1000
	buf = strconv.AppendInt(buf, us/1000, 10)
	frac := us % 1000
	return append(buf, '.', byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}

// WriteSummary renders the end-of-run summary as a human-readable block
// (the stderr companion to the JSONL stream).
func WriteSummary(w io.Writer, s *Summary) error {
	_, err := fmt.Fprintf(w,
		"queries      %d (%.0f qps over %v)\n"+
			"  NOERROR    %d\n"+
			"  NXDOMAIN   %d\n"+
			"  SERVFAIL   %d\n"+
			"  REFUSED    %d\n"+
			"  TIMEOUT    %d\n"+
			"  ERROR      %d\n"+
			"  BUSY       %d\n"+
			"coalesced    %d\n"+
			"skipped      %d feed lines\n"+
			"latency ms   p50 %.3f  p90 %.3f  p99 %.3f  max %.3f  mean %.3f\n",
		s.Queries, s.QPS, s.Wall.Round(time.Millisecond),
		s.Count(StatusNoError), s.Count(StatusNXDomain), s.Count(StatusServFail),
		s.Count(StatusRefused), s.Count(StatusTimeout), s.Count(StatusError),
		s.Count(StatusBusy),
		s.Coalesced, s.SkippedLines,
		s.LatP50, s.LatP90, s.LatP99, s.LatMax, s.LatMean)
	return err
}
