package trace

// Parallel chunked ingestion. The serial scanners read one line at a
// time on one goroutine; on multi-core hardware that single parse loop
// is the analysis pipeline's longest serial prefix. The chunked path
// splits the input into record-aligned (newline-aligned) chunks, parses
// the chunks concurrently — each worker with its own parseState, so the
// zero-copy field splitting and per-worker name interning need no locks
// — and merges the parsed chunks back in input order.
//
// Determinism is the contract: the record sequence, every quarantine
// decision, the error-budget trip point, and the strict-mode abort all
// replay in serial line order at the merge, so a chunked scan is
// indistinguishable from a serial one at any worker count. Query-name
// strings are re-canonicalized through a single merge-side SymbolTable,
// which restores global first-appearance intern order no matter which
// worker materialized a name first.

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"runtime/pprof"
	"sync"

	"dnscontext/internal/parallel"
)

const (
	// ingestChunkBytes is the target chunk size handed to one parse
	// worker: large enough to amortize the hand-off, small enough that
	// a few chunks per worker stay in flight.
	ingestChunkBytes = 1 << 20
	// maxIngestLine mirrors the serial scanners' bufio token cap
	// (sc.Buffer(..., 1<<22)): a line this long fails the scan with
	// bufio.ErrTooLong on either path.
	maxIngestLine = 1 << 22
)

// ingestChunk is one newline-aligned slice of the input: whole lines
// only (the final chunk of the stream may lack a trailing '\n').
type ingestChunk struct {
	// startLine is the 1-based physical line number of the chunk's
	// first line, so workers report exact line numbers without any
	// global counter.
	startLine int
	// lines counts the chunk's lines, a final unterminated one included:
	// an upper bound on its records that sizes the parse output once.
	lines int
	data  []byte
}

// newIngestChunk wraps data, counting its lines.
func newIngestChunk(startLine int, data []byte) ingestChunk {
	n := bytes.Count(data, []byte{'\n'})
	if len(data) > 0 && data[len(data)-1] != '\n' {
		n++
	}
	return ingestChunk{startLine: startLine, lines: n, data: data}
}

// produceIngestChunks reads r into newline-aligned chunks. A line that
// accumulates maxIngestLine bytes without a newline fails with
// bufio.ErrTooLong, exactly where the serial scanner's token cap would;
// a mid-stream read error still emits every buffered line first — the
// serial scanner yields those (including a partial final line) before
// reporting the error, and the ordered merge preserves that prefix.
func produceIngestChunks(r io.Reader, chunkBytes int, emit func(ingestChunk) error) error {
	startLine := 1
	var carry []byte // partial trailing line of the previous read
	for {
		buf := make([]byte, len(carry)+chunkBytes)
		n := copy(buf, carry)
		m, rerr := io.ReadFull(r, buf[n:])
		buf = buf[:n+m]
		// Only the first line of buf can be overlong: carry holds no
		// newline, so any later line is bounded by one read's bytes.
		if i := bytes.IndexByte(buf, '\n'); i >= maxIngestLine || (i < 0 && len(buf) >= maxIngestLine) {
			return bufio.ErrTooLong
		}
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			if len(buf) > 0 {
				return emit(newIngestChunk(startLine, buf))
			}
			return nil
		}
		if rerr != nil {
			if len(buf) > 0 {
				if err := emit(newIngestChunk(startLine, buf)); err != nil {
					return err
				}
			}
			return rerr
		}
		cut := bytes.LastIndexByte(buf, '\n')
		if cut < 0 {
			carry = buf // the line continues; grow it next read
			continue
		}
		// Cap the emitted slice's capacity: carry aliases the same
		// backing array and is copied out on the next iteration.
		c := newIngestChunk(startLine, buf[:cut+1:cut+1])
		if err := emit(c); err != nil {
			return err
		}
		startLine += c.lines
		carry = buf[cut+1:]
	}
}

// lineFailure is one data line that failed to parse inside a chunk:
// its line number, copied text and cause, and the index of the chunk
// record it precedes, so the merge can replay records and failures in
// line order.
type lineFailure struct {
	line   int
	before int
	text   string
	err    error
}

// parsedChunk is one chunk's parse output: its records in line order,
// and the failing lines among them.
type parsedChunk[R any] struct {
	recs  []R
	fails []lineFailure
}

// parseChunkLines splits one chunk into lines — mirroring
// bufio.ScanLines: '\n' terminators, one trailing '\r' dropped, a final
// unterminated line kept — and parses every data line. The record
// slice is sized once from the chunk's line count. Comment ('#') and
// blank lines advance the line counter only, as the serial scanners do.
func parseChunkLines[R any](c ingestChunk, parse func(lineNo int, line []byte) (R, error)) parsedChunk[R] {
	pc := parsedChunk[R]{recs: make([]R, 0, c.lines)}
	line := c.startLine - 1
	data := c.data
	for len(data) > 0 {
		var ln []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			ln, data = data[:i], data[i+1:]
		} else {
			ln, data = data, nil
		}
		line++
		if len(ln) > 0 && ln[len(ln)-1] == '\r' {
			ln = ln[:len(ln)-1]
		}
		if len(ln) == 0 || ln[0] == '#' {
			continue
		}
		rec, err := parse(line, ln)
		if err != nil {
			pc.fails = append(pc.fails, lineFailure{line: line, before: len(pc.recs), text: string(ln), err: err})
			continue
		}
		pc.recs = append(pc.recs, rec)
	}
	return pc
}

// scanChunked is the shared chunked-scan driver: produce chunks, parse
// them on `workers` goroutines (each drawing a pooled parseState), and
// replay the per-line outcomes in input order — applying the error
// policy and budget with the same counters, trip points, and error
// values as the serial scanner core. canon, when non-nil, runs on each
// record at merge time (the DNS path re-canonicalizes Query through a
// single table there).
func scanChunked[R any](r io.Reader, workers, chunkBytes int, policy ErrorPolicy,
	parse func(lineNo int, line []byte, st *parseState) (R, error),
	canon func(*R),
	yield func(*R) error) error {

	pool := sync.Pool{New: func() any { return newParseState() }}
	var lines, nQuar int
	var err error
	// Label the scan so profiles attribute parse samples to the stage;
	// the chunk workers inherit the label from this goroutine.
	pprof.Do(context.Background(), pprof.Labels("dnsctx_phase", "scan"), func(ctx context.Context) {
		err = parallel.OrderedStream(ctx, workers, 2*parallel.Workers(workers),
			func(emit func(ingestChunk) error) error {
				return produceIngestChunks(r, chunkBytes, emit)
			},
			func(c ingestChunk) (parsedChunk[R], error) {
				st := pool.Get().(*parseState)
				pc := parseChunkLines(c, func(lineNo int, line []byte) (R, error) {
					return parse(lineNo, line, st)
				})
				pool.Put(st)
				return pc, nil
			},
			func(pc parsedChunk[R]) error {
				next := 0
				yieldUpTo := func(end int) error {
					for ; next < end; next++ {
						lines++
						rec := &pc.recs[next]
						if canon != nil {
							canon(rec)
						}
						if err := yield(rec); err != nil {
							return err
						}
					}
					return nil
				}
				for i := range pc.fails {
					f := &pc.fails[i]
					if err := yieldUpTo(f.before); err != nil {
						return err
					}
					lines++
					if !policy.Quarantine {
						return f.err
					}
					nQuar++
					q := Quarantined{Line: f.line, Text: f.text, Err: f.err}
					if policy.Sink != nil {
						policy.Sink(q)
					}
					if policy.Budget.Exceeded(nQuar, lines) {
						return &BudgetError{Quarantined: nQuar, Lines: lines, Last: q}
					}
				}
				return yieldUpTo(len(pc.recs))
			})
	})
	return err
}

// scanChunkedDNS streams r's DNS records through the chunked parser,
// yielding them in input order under policy. Query names from
// different workers are re-canonicalized through one merge-side table,
// so equal names share storage and the downstream analyzer's intern
// order matches a serial scan's.
func scanChunkedDNS(r io.Reader, workers int, policy ErrorPolicy, yield func(*DNSRecord) error) error {
	names := NewSymbolTable()
	return scanChunked(r, workers, ingestChunkBytes, policy, parseDNSLineBytes,
		func(d *DNSRecord) { d.Query = names.CanonicalString(d.Query) },
		yield)
}

// scanChunkedConns is scanChunkedDNS for connection summaries (which
// carry no strings, so no re-canonicalization is needed).
func scanChunkedConns(r io.Reader, workers int, policy ErrorPolicy, yield func(*ConnRecord) error) error {
	return scanChunked(r, workers, ingestChunkBytes, policy, parseConnLineBytes, nil, yield)
}
