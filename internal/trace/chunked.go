package trace

// Parallel chunked ingestion. The serial scanners read one line at a
// time on one goroutine; on multi-core hardware that single parse loop
// is the analysis pipeline's longest serial prefix. The chunked path
// splits the input into record-aligned (newline-aligned) chunks, parses
// the chunks concurrently — each worker with its own parseState, so the
// zero-copy field splitting and per-worker name interning need no locks
// — and merges the parsed chunks back in input order. A stream runs
// one pipeline over all its inputs (every partition file of a
// DirSource, in order), so the workers never drain at a file boundary.
//
// Determinism is the contract: the record sequence, every quarantine
// decision, the error-budget trip point, and the strict-mode abort all
// replay in serial line order at the merge, so a chunked scan is
// indistinguishable from a serial scan of each input at any worker
// count. Equal query names parsed by different workers are equal
// strings, not one shared string; a consumer that numbers names (the
// analyzer's record store) interns them itself, in record order.

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"runtime/pprof"

	"dnscontext/internal/parallel"
)

const (
	// ingestChunkBytes is the chunk size handed to one parse worker:
	// large enough to amortize the hand-off, small enough that a few
	// chunks per worker stay in flight. The stream's chunk buffers are
	// pooled, so this also sets the pipeline's resident buffer bytes
	// (about (workers+1) chunks); 512 KiB measured best against both
	// report workloads' peak heap (DESIGN.md §7j).
	ingestChunkBytes = 512 << 10
	// maxIngestLine mirrors the serial scanners' bufio token cap
	// (sc.Buffer(..., 1<<22)): a line this long fails the scan with
	// bufio.ErrTooLong on either path.
	maxIngestLine = 1 << 22
)

// streamInput is one input of a stream, read in order: a DirSource's
// partition file, named by its path, or a ScannerSource's reader, which
// has no path.
type streamInput struct {
	path string
	r    io.Reader // nil: open path
}

// read hands the input's reader to scan, opening and closing the file
// of a path, and annotates scan's error (see annotate). An open error
// names the file itself and is returned as it is.
func (in streamInput) read(scan func(io.Reader) error) error {
	r := in.r
	if r == nil {
		f, err := os.Open(in.path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	return in.annotate(scan(r))
}

// annotate prefixes err with the input's path, since a multi-file
// stream would otherwise report bare line numbers; a reader's errors
// pass through.
func (in streamInput) annotate(err error) error {
	if err == nil || in.path == "" {
		return err
	}
	return fmt.Errorf("%s: %w", in.path, err)
}

// ingestChunk is one newline-aligned slice of one input: whole lines
// only (the input's final chunk may lack a trailing '\n'). A chunk never
// spans two inputs.
type ingestChunk struct {
	// input indexes the stream's inputs.
	input int
	// startLine is the 1-based physical line number of the chunk's
	// first line in its input, so workers report exact line numbers
	// without any global counter.
	startLine int
	// lines counts the chunk's lines, a final unterminated one included:
	// an upper bound on its records, which sizes the parse output once
	// (parseChunkLines).
	lines int
	// data starts a buffer of the stream's pool, which takes it back
	// once the chunk is parsed.
	data []byte
}

// newIngestChunk wraps data, counting its lines.
func newIngestChunk(input, startLine int, data []byte) ingestChunk {
	n := bytes.Count(data, []byte{'\n'})
	if len(data) > 0 && data[len(data)-1] != '\n' {
		n++
	}
	return ingestChunk{input: input, startLine: startLine, lines: n, data: data}
}

// produceIngestChunks reads r, input number `input` of its stream, into
// newline-aligned chunks in buffers drawn from buf. A chunk holds
// chunkBytes bytes, the carried partial line included, unless that line
// has outgrown half a chunk: then the chunk reads chunkBytes more. A line
// that accumulates maxIngestLine bytes without a newline fails with
// bufio.ErrTooLong, exactly where the serial scanner's token cap would;
// a mid-stream read error still emits every buffered line first — the
// serial scanner yields those (including a partial final line) before
// reporting the error, and the ordered merge preserves that prefix.
func produceIngestChunks(r io.Reader, input, chunkBytes int, buf func(n int) []byte, emit func(ingestChunk) error) error {
	startLine := 1
	var carry []byte // partial trailing line of the previous read
	for {
		size := chunkBytes
		if len(carry) > chunkBytes/2 {
			size = len(carry) + chunkBytes
		}
		// The pool may hand back the buffer carry sits in, once its
		// chunk is parsed; copy moves the bytes down safely.
		b := buf(size)
		n := copy(b, carry)
		m, rerr := io.ReadFull(r, b[n:])
		b = b[:n+m]
		// Only the first line of b can be overlong: carry holds no
		// newline, so any later line is bounded by one read's bytes.
		if i := bytes.IndexByte(b, '\n'); i >= maxIngestLine || (i < 0 && len(b) >= maxIngestLine) {
			return bufio.ErrTooLong
		}
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			if len(b) > 0 {
				return emit(newIngestChunk(input, startLine, b))
			}
			return nil
		}
		if rerr != nil {
			if len(b) > 0 {
				if err := emit(newIngestChunk(input, startLine, b)); err != nil {
					return err
				}
			}
			return rerr
		}
		cut := bytes.LastIndexByte(b, '\n')
		if cut < 0 {
			carry = b // the line continues; grow it next read
			continue
		}
		c := newIngestChunk(input, startLine, b[:cut+1])
		if err := emit(c); err != nil {
			return err
		}
		startLine += c.lines
		carry = b[cut+1:]
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

// parsedChunk is one chunk's parse output: its input, its records in
// line order, and the failing lines among them.
type parsedChunk[R any] struct {
	input int
	recs  []R
	fails []lineFailure
}

// minRecordLine is the length of the shortest line either TSV parser
// accepts: a DNS line's nine fields with one-digit timestamps, ID, type
// and RCode, "::" for both addresses, an empty name and no answers, and
// its eight tabs. A connection line needs 21 bytes.
const minRecordLine = 17

// parseChunkLines splits one chunk into lines — mirroring
// bufio.ScanLines: '\n' terminators, one trailing '\r' dropped, a final
// unterminated line kept — and parses every data line. The records land
// in recs, which is regrown only when its capacity is below the chunk's
// bound on records, with a sixteenth to spare: full chunks of one stream
// hold nearly the same number of records, so the slice then serves the
// next one too. The bound is the line count, or the chunk's length over
// minRecordLine if that is smaller, so short blank and comment lines,
// which advance the line counter only (as in the serial scanners),
// cannot inflate it.
func parseChunkLines[R any](c ingestChunk, recs []R, parse func(lineNo int, line []byte) (R, error)) parsedChunk[R] {
	if n := min(c.lines, len(c.data)/minRecordLine); cap(recs) < n {
		recs = make([]R, 0, n+n/16)
	}
	pc := parsedChunk[R]{input: c.input, recs: recs[:0]}
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

// parseStates is what one stream's chunk pipeline reuses for the
// stream's whole lifetime — across every file of a DirSource: the parse
// states, so each query name is interned and each address cached once
// per stream, not once per file; the chunk buffers, which go back as
// soon as their chunk is parsed (records and quarantined lines copy
// what they keep); and the record slices of chunks the merge has
// finished with. At most one state per parse worker, one buffer per
// worker plus the one being filled, and one slice per chunk in flight,
// is out at a time.
type parseStates[R any] struct {
	free  chan *parseState
	bufs  chan []byte // holds every buffer made: workers + 1
	made  int         // chunk buffers made
	spare chan []R
}

func newParseStates[R any](workers int) *parseStates[R] {
	w := parallel.Workers(workers)
	return &parseStates[R]{
		free:  make(chan *parseState, w),
		bufs:  make(chan []byte, w+1),
		spare: make(chan []R, chunksAhead(w)),
	}
}

func (p *parseStates[R]) get() *parseState {
	select {
	case st := <-p.free:
		return st
	default:
		return newParseState()
	}
}

func (p *parseStates[R]) put(st *parseState) {
	select {
	case p.free <- st:
	default:
	}
}

// buf returns an n-byte chunk buffer; only the producer calls it. The
// stream makes one buffer per worker, plus the one being filled, and
// then reuses parsed chunks' buffers: once that many are made, the
// producer holds none when it asks and at most one is in each worker,
// so one is back. A buffer too small for a long line is replaced.
func (p *parseStates[R]) buf(n int) []byte {
	if p.made < cap(p.bufs) {
		p.made++
		return make([]byte, n)
	}
	select {
	case b := <-p.bufs:
		if cap(b) >= n {
			return b[:n]
		}
	default:
	}
	return make([]byte, n)
}

func (p *parseStates[R]) putBuf(b []byte) {
	select {
	case p.bufs <- b[:0]:
	default:
	}
}

// recs returns a finished chunk's record slice, or nil.
func (p *parseStates[R]) recs() []R {
	select {
	case r := <-p.spare:
		return r
	default:
		return nil
	}
}

// chunksAhead is the chunk scan's in-flight window on w workers.
func chunksAhead(w int) int { return 2 * w }

// scanChunked is the shared chunked-scan driver, one pipeline for all
// of a stream's inputs: produce chunks from each input in turn, parse
// them on `workers` goroutines (each drawing a parse state from
// states), and replay the per-line outcomes in stream order — applying
// the error policy and budget with the same counters, trip points, and
// error values as a serial scan of each input, and prefixing each
// input's errors as streamInput.read does. A chunk's record slice goes
// back to states once the merge has yielded every record in it: the
// Source contract limits a yielded pointer to the call.
func scanChunked[R any](inputs []streamInput, workers, chunkBytes int, policy ErrorPolicy, states *parseStates[R],
	parse func(lineNo int, line []byte, st *parseState) (R, error),
	yield func(*R) error) error {

	// The replay counters are per input, as a serial scan's are.
	var input, lines, nQuar int
	replay := func(pc parsedChunk[R]) error {
		if pc.input != input {
			input, lines, nQuar = pc.input, 0, 0
		}
		next := 0
		yieldUpTo := func(end int) error {
			for ; next < end; next++ {
				lines++
				if err := yield(&pc.recs[next]); err != nil {
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
		if err := yieldUpTo(len(pc.recs)); err != nil {
			return err
		}
		select {
		case states.spare <- pc.recs:
		default:
		}
		return nil
	}
	var err error
	// Label the scan so profiles attribute parse samples to the stage;
	// the chunk workers inherit the label from this goroutine.
	pprof.Do(context.Background(), pprof.Labels("dnsctx_phase", "scan"), func(ctx context.Context) {
		err = parallel.OrderedStream(ctx, workers, chunksAhead(parallel.Workers(workers)),
			func(emit func(ingestChunk) error) error {
				for i, in := range inputs {
					if err := in.read(func(r io.Reader) error {
						return produceIngestChunks(r, i, chunkBytes, states.buf, emit)
					}); err != nil {
						return err
					}
				}
				return nil
			},
			func(c ingestChunk) (parsedChunk[R], error) {
				st := states.get()
				pc := parseChunkLines(c, states.recs(), func(lineNo int, line []byte) (R, error) {
					return parse(lineNo, line, st)
				})
				states.put(st)
				states.putBuf(c.data)
				return pc, nil
			},
			func(pc parsedChunk[R]) error {
				return inputs[pc.input].annotate(replay(pc))
			})
	})
	return err
}
