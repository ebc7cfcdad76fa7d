package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"dnscontext/internal/obs"
)

// Streaming ingestion with quarantine. The slice-based readers
// (ReadDNS/ReadConns) abort an entire ingest on the first malformed
// line, which is the right contract for machine-written logs but fatal
// for real-world captures where one corrupt line in millions is
// routine. DNSScanner and ConnScanner yield one record at a time in
// bounded memory and take an ErrorPolicy: strict mode reproduces the
// readers' fail-fast behaviour exactly, quarantine mode diverts
// malformed lines — with their line number and cause — to a quarantine
// sink and keeps going until an error budget trips.

// ErrBudgetExceeded is matched (via errors.Is) by the error a scanner
// or monitor reports when its quarantine budget trips.
var ErrBudgetExceeded = errors.New("error budget exceeded")

// ErrorBudget bounds how much malformed input a quarantining consumer
// tolerates before giving up. The zero value allows no errors at all;
// see UnlimitedBudget for the never-trips budget.
type ErrorBudget struct {
	// MaxErrors is the number of records that may be quarantined before
	// the budget trips. Zero allows none (the first malformed record
	// trips); negative means unlimited.
	MaxErrors int
	// MaxErrorRate trips the budget when quarantined/processed exceeds
	// this fraction. Zero disables the rate check. The rate is checked
	// each time a record is quarantined, but only once 100 records
	// (rateMinLines) have been seen — otherwise a corrupt head would
	// trip a rate budget the clean tail of the input would have
	// satisfied.
	MaxErrorRate float64
}

// rateMinLines is the grace period before a rate budget applies: the
// number of processed records MaxErrorRate waits for.
const rateMinLines = 100

// UnlimitedBudget returns the budget that never trips.
func UnlimitedBudget() ErrorBudget { return ErrorBudget{MaxErrors: -1} }

// Exceeded reports whether quarantining `quarantined` records out of
// `processed` exhausts the budget.
func (b ErrorBudget) Exceeded(quarantined, processed int) bool {
	if b.MaxErrors >= 0 && quarantined > b.MaxErrors {
		return true
	}
	return b.MaxErrorRate > 0 && processed >= rateMinLines &&
		float64(quarantined)/float64(processed) > b.MaxErrorRate
}

// Quarantined is one malformed line diverted instead of aborting the
// scan: where it was, what it said, and why it failed to parse.
type Quarantined struct {
	// Path is the file the line is in: a DirSource partition's path. It
	// is empty for a line read from an io.Reader.
	Path string
	// Line is the 1-based physical line number in the input.
	Line int
	// Text is the raw line.
	Text string
	// Err is the parse failure.
	Err error
}

// ErrorPolicy decides what a scanner does with malformed lines.
type ErrorPolicy struct {
	// Quarantine diverts malformed lines instead of aborting the scan.
	// The zero value (strict) fails on the first malformed line with
	// exactly the error ReadDNS/ReadConns would have returned.
	Quarantine bool
	// Budget bounds quarantining; ignored in strict mode. Note that the
	// zero budget allows no errors — use QuarantineAll or
	// QuarantineBudget to build a policy with intent.
	Budget ErrorBudget
	// Sink, when non-nil, receives each quarantined line as it is
	// diverted and the scanner retains nothing. With a nil Sink the
	// scanner retains quarantined lines for Quarantined().
	Sink func(Quarantined)
	// Done, when non-nil, receives a Source's tally of each input it
	// has read to the end without error, in input order: the input's
	// path (empty for an io.Reader) and its line counts.
	Done func(path string, stats ScanStats)
}

// Strict returns the fail-fast policy (the zero ErrorPolicy).
func Strict() ErrorPolicy { return ErrorPolicy{} }

// QuarantineAll returns the policy that quarantines every malformed
// line with no budget.
func QuarantineAll() ErrorPolicy {
	return ErrorPolicy{Quarantine: true, Budget: UnlimitedBudget()}
}

// QuarantineBudget returns a quarantining policy tripping after
// maxErrors quarantined records (negative = unlimited) or when the
// error rate exceeds maxRate (0 = no rate check).
func QuarantineBudget(maxErrors int, maxRate float64) ErrorPolicy {
	return ErrorPolicy{Quarantine: true, Budget: ErrorBudget{MaxErrors: maxErrors, MaxErrorRate: maxRate}}
}

// BudgetError is the error a scanner reports when its quarantine
// budget trips. errors.Is(err, ErrBudgetExceeded) matches it;
// errors.Unwrap yields the parse error that tripped it.
type BudgetError struct {
	// Quarantined counts quarantined records including the one that
	// tripped the budget; Lines counts data lines processed.
	Quarantined int
	Lines       int
	// Last is the record whose quarantining tripped the budget.
	Last Quarantined
}

// Error implements error.
func (e *BudgetError) Error() string {
	return fmt.Sprintf("trace: quarantine budget exceeded: %d of %d lines quarantined (line %d: %v)",
		e.Quarantined, e.Lines, e.Last.Line, e.Last.Err)
}

// Unwrap returns the parse error that tripped the budget.
func (e *BudgetError) Unwrap() error { return e.Last.Err }

// Is matches ErrBudgetExceeded.
func (e *BudgetError) Is(target error) bool { return target == ErrBudgetExceeded }

// ScanStats summarizes a scanner's progress so far.
type ScanStats struct {
	// Lines is the number of data lines processed (records yielded plus
	// records quarantined); comment and blank lines are not counted.
	Lines int
	// Records is the number of well-formed records yielded.
	Records int
	// Quarantined is the number of malformed lines diverted.
	Quarantined int
}

// scanner is the shared core of DNSScanner and ConnScanner: line
// splitting, comment skipping, the error policy, and the optional obs
// mirrors.
type scanner struct {
	sc     *bufio.Scanner
	policy ErrorPolicy
	st     *parseState

	line  int // physical line number of the last line read
	lines int // data lines processed
	nQuar int
	quar  []Quarantined
	err   error
	// parseFailed distinguishes a strict-mode parse abort from an
	// underlying read error, so the slice readers can reproduce their
	// historical return shapes exactly.
	parseFailed bool

	recordsC     *obs.Counter
	quarantinedC *obs.Counter
}

func newScanner(r io.Reader, policy ErrorPolicy) scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	return scanner{sc: sc, policy: policy, st: newParseState()}
}

// observe mirrors the scanner's progress into reg under the given
// stream label. A nil registry is a no-op.
func (s *scanner) observe(reg *obs.Registry, stream string) {
	if reg == nil {
		return
	}
	s.recordsC = reg.CounterVec("dnsctx_trace_records_total",
		"Records yielded by the trace scanners, by stream.", "stream").With(stream)
	s.quarantinedC = reg.CounterVec("dnsctx_trace_quarantined_total",
		"Malformed lines diverted to quarantine, by stream.", "stream").With(stream)
}

// next advances to the next record: it feeds data lines to parse until
// one succeeds, quarantining or aborting on failures per the policy.
// Lines are handed to parse as views into the bufio.Scanner's buffer —
// valid only for the duration of the call — so the per-line string of
// the historical Text() path is never materialized; quarantined lines
// copy the text at the moment of diversion.
func (s *scanner) next(parse func(lineNo int, line []byte) error) bool {
	if s.err != nil {
		return false
	}
	for s.sc.Scan() {
		s.line++
		line := s.sc.Bytes()
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		s.lines++
		perr := parse(s.line, line)
		if perr == nil {
			s.recordsC.Inc()
			return true
		}
		if !s.policy.Quarantine {
			s.err = perr
			s.parseFailed = true
			return false
		}
		s.nQuar++
		s.quarantinedC.Inc()
		q := Quarantined{Line: s.line, Text: string(line), Err: perr}
		if s.policy.Sink != nil {
			s.policy.Sink(q)
		} else {
			s.quar = append(s.quar, q)
		}
		if s.policy.Budget.Exceeded(s.nQuar, s.lines) {
			s.err = &BudgetError{Quarantined: s.nQuar, Lines: s.lines, Last: q}
			return false
		}
	}
	s.err = s.sc.Err()
	return false
}

// Err returns the error that stopped the scan: nil at clean EOF, the
// parse error in strict mode, a *BudgetError when the quarantine
// budget tripped, or the underlying read error.
func (s *scanner) Err() error { return s.err }

// Line returns the physical line number of the most recently read line
// (the current record's line after a true Scan).
func (s *scanner) Line() int { return s.line }

// Quarantined returns the malformed lines diverted so far (empty when
// the policy routes them to a Sink).
func (s *scanner) Quarantined() []Quarantined { return s.quar }

// Stats summarizes progress so far.
func (s *scanner) Stats() ScanStats {
	return ScanStats{Lines: s.lines, Records: s.lines - s.nQuar, Quarantined: s.nQuar}
}

// DNSScanner yields DNS transaction records from Bro-style TSV one at
// a time, in bounded memory, under an ErrorPolicy. In strict mode it
// produces exactly the records and errors of ReadDNS.
type DNSScanner struct {
	scanner
	rec DNSRecord
}

// NewDNSScanner returns a scanner over r with the given policy.
func NewDNSScanner(r io.Reader, policy ErrorPolicy) *DNSScanner {
	return &DNSScanner{scanner: newScanner(r, policy)}
}

// Observe mirrors scan progress (records yielded, lines quarantined)
// into reg under the "dns" stream label.
func (s *DNSScanner) Observe(reg *obs.Registry) { s.observe(reg, "dns") }

// Scan advances to the next record, reporting false at end of input or
// error (see Err).
func (s *DNSScanner) Scan() bool {
	return s.next(func(lineNo int, line []byte) error {
		return parseDNSLineBytes(lineNo, line, s.st, &s.rec)
	})
}

// Record returns the record produced by the last successful Scan.
func (s *DNSScanner) Record() DNSRecord { return s.rec }

// ConnScanner yields connection summaries from Bro-style TSV one at a
// time, in bounded memory, under an ErrorPolicy. In strict mode it
// produces exactly the records and errors of ReadConns.
type ConnScanner struct {
	scanner
	rec ConnRecord
}

// NewConnScanner returns a scanner over r with the given policy.
func NewConnScanner(r io.Reader, policy ErrorPolicy) *ConnScanner {
	return &ConnScanner{scanner: newScanner(r, policy)}
}

// Observe mirrors scan progress into reg under the "conn" stream label.
func (s *ConnScanner) Observe(reg *obs.Registry) { s.observe(reg, "conn") }

// Scan advances to the next record, reporting false at end of input or
// error (see Err).
func (s *ConnScanner) Scan() bool {
	return s.next(func(lineNo int, line []byte) error {
		return parseConnLineBytes(lineNo, line, s.st, &s.rec)
	})
}

// Record returns the record produced by the last successful Scan.
func (s *ConnScanner) Record() ConnRecord { return s.rec }
