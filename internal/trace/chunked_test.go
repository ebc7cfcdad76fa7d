package trace

// Chunked-ingest parity and edge cases (ISSUE 10). The chunked scan's
// contract is bit-identical behavior to the serial scanners at every
// worker count and chunk size: same records in the same order, same
// quarantine decisions with the same line numbers, same budget trip
// points, same errors. These tests drive the internal entry points with
// tiny chunk sizes so splits land inside and between records.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// chunkTestDNS builds n parseable DNS records with a mix of repeated
// and distinct query names (so per-worker name interning is exercised)
// and renders them as TSV.
func chunkTestDNS(t *testing.T, n int) (string, []DNSRecord) {
	t.Helper()
	recs := make([]DNSRecord, n)
	for i := range recs {
		recs[i] = DNSRecord{
			QueryTS:  time.Duration(i) * time.Millisecond,
			TS:       time.Duration(i)*time.Millisecond + 3*time.Millisecond,
			Client:   netip.AddrFrom4([4]byte{10, 0, byte(i % 50), 2}),
			Resolver: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
			ID:       uint16(i),
			Query:    fmt.Sprintf("host-%d.example.com", i%257),
			QType:    1,
			Answers: []Answer{
				{Addr: netip.AddrFrom4([4]byte{93, 184, byte(i % 200), 34}), TTL: 300 * time.Second},
				{Addr: netip.AddrFrom4([4]byte{93, 185, byte(i % 100), 7}), TTL: 60 * time.Second},
			},
		}
	}
	var buf bytes.Buffer
	if err := WriteDNS(&buf, recs); err != nil {
		t.Fatal(err)
	}
	return buf.String(), recs
}

// collectDNSSerial runs the serial scanner and returns its records,
// quarantines, and terminal error.
func collectDNSSerial(input string, policy ErrorPolicy) ([]DNSRecord, []Quarantined, error) {
	var quar []Quarantined
	if policy.Quarantine && policy.Sink == nil {
		policy.Sink = func(q Quarantined) { quar = append(quar, q) }
	}
	sc := NewDNSScanner(strings.NewReader(input), policy)
	var recs []DNSRecord
	for sc.Scan() {
		recs = append(recs, sc.Record())
	}
	return recs, quar, sc.Err()
}

// collectDNSChunked runs the chunked scanner at the given worker count
// and chunk size.
func collectDNSChunked(input string, workers, chunkBytes int, policy ErrorPolicy) ([]DNSRecord, []Quarantined, error) {
	var quar []Quarantined
	if policy.Quarantine && policy.Sink == nil {
		policy.Sink = func(q Quarantined) { quar = append(quar, q) }
	}
	var recs []DNSRecord
	err := scanChunked([]streamInput{{r: strings.NewReader(input)}}, workers, chunkBytes, policy, newParseStates[DNSRecord](workers), parseDNSLineBytes,
		func(d *DNSRecord) error { recs = append(recs, *d); return nil })
	return recs, quar, err
}

// assertScanParity compares a chunked run against the serial reference:
// records, quarantine line numbers and texts, and error values.
func assertScanParity(t *testing.T, label string,
	wantRecs, gotRecs []DNSRecord, wantQuar, gotQuar []Quarantined, wantErr, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: error mismatch: serial=%v chunked=%v", label, wantErr, gotErr)
	}
	if wantErr != nil && wantErr.Error() != gotErr.Error() {
		t.Fatalf("%s: error text mismatch:\nserial:  %v\nchunked: %v", label, wantErr, gotErr)
	}
	if !reflect.DeepEqual(wantRecs, gotRecs) {
		t.Fatalf("%s: records mismatch (serial %d vs chunked %d)", label, len(wantRecs), len(gotRecs))
	}
	if len(wantQuar) != len(gotQuar) {
		t.Fatalf("%s: quarantine count mismatch: serial %d vs chunked %d", label, len(wantQuar), len(gotQuar))
	}
	for i := range wantQuar {
		if wantQuar[i].Path != gotQuar[i].Path || wantQuar[i].Line != gotQuar[i].Line || wantQuar[i].Text != gotQuar[i].Text ||
			wantQuar[i].Err.Error() != gotQuar[i].Err.Error() {
			t.Fatalf("%s: quarantine %d mismatch:\nserial:  %+v\nchunked: %+v", label, i, wantQuar[i], gotQuar[i])
		}
	}
}

// TestChunkedDNSParityAcrossChunkSizes sweeps chunk sizes that land
// splits everywhere — mid-record, exactly on record boundaries, and a
// single chunk covering the whole input — across worker counts.
func TestChunkedDNSParityAcrossChunkSizes(t *testing.T) {
	input, _ := chunkTestDNS(t, 1000)
	wantRecs, wantQuar, wantErr := collectDNSSerial(input, Strict())
	if wantErr != nil {
		t.Fatal(wantErr)
	}
	// One record line for the boundary-exact case.
	lineLen := strings.Index(input[strings.Index(input, "\n")+1:], "\n") + 1
	for _, chunkBytes := range []int{64, lineLen, lineLen + 1, 4096, len(input), len(input) * 2} {
		for _, workers := range []int{1, 2, 8} {
			gotRecs, gotQuar, gotErr := collectDNSChunked(input, workers, chunkBytes, Strict())
			assertScanParity(t, fmt.Sprintf("chunk=%d workers=%d", chunkBytes, workers),
				wantRecs, gotRecs, wantQuar, gotQuar, wantErr, gotErr)
		}
	}
}

// TestChunkedBoundaryAtRecordSplit pins the exact-boundary case: with
// the chunk size equal to one record line (terminator included), every
// chunk holds exactly one record and the carry path never engages; one
// byte less and every record spans a split. Both must be invisible.
func TestChunkedBoundaryAtRecordSplit(t *testing.T) {
	recs := []DNSRecord{{
		QueryTS: time.Second, TS: time.Second + 5*time.Millisecond,
		Client:   netip.MustParseAddr("10.0.0.2"),
		Resolver: netip.MustParseAddr("10.0.0.1"),
		Query:    "a.example.com", QType: 1,
		Answers: []Answer{{Addr: netip.MustParseAddr("93.184.216.34"), TTL: time.Minute}},
	}}
	var buf bytes.Buffer
	if err := WriteDNS(&buf, recs); err != nil {
		t.Fatal(err)
	}
	// Strip the header comment so every line is one record, then repeat.
	body := buf.String()[strings.Index(buf.String(), "\n")+1:]
	input := strings.Repeat(body, 200)
	wantRecs, _, wantErr := collectDNSSerial(input, Strict())
	if wantErr != nil || len(wantRecs) != 200 {
		t.Fatalf("serial: %d recs, err %v", len(wantRecs), wantErr)
	}
	for _, chunkBytes := range []int{len(body), len(body) - 1, len(body) + 1} {
		gotRecs, _, gotErr := collectDNSChunked(input, 4, chunkBytes, Strict())
		assertScanParity(t, fmt.Sprintf("chunk=%d", chunkBytes), wantRecs, gotRecs, nil, nil, wantErr, gotErr)
	}
}

// TestChunkedQuarantineSpanningSplit places a corrupt line so chunk
// splits land inside it: the quarantine must still report the full
// text, the right 1-based line number, and trip the budget exactly
// where the serial scan does.
func TestChunkedQuarantineSpanningSplit(t *testing.T) {
	input, _ := chunkTestDNS(t, 50)
	lines := strings.Split(strings.TrimSuffix(input, "\n"), "\n")
	// A corrupt line much longer than the chunk size, mid-file.
	corrupt := "CORRUPT\t" + strings.Repeat("x", 300)
	lines = append(lines[:20], append([]string{corrupt, corrupt}, lines[20:]...)...)
	in := strings.Join(lines, "\n") + "\n"

	wantRecs, wantQuar, wantErr := collectDNSSerial(in, QuarantineAll())
	if wantErr != nil || len(wantQuar) != 2 {
		t.Fatalf("serial: quar %d, err %v", len(wantQuar), wantErr)
	}
	if wantQuar[0].Line != 21 || wantQuar[0].Text != corrupt {
		t.Fatalf("serial quarantine misplaced: %+v", wantQuar[0])
	}
	for _, chunkBytes := range []int{64, 128, 301} {
		gotRecs, gotQuar, gotErr := collectDNSChunked(in, 4, chunkBytes, QuarantineAll())
		assertScanParity(t, fmt.Sprintf("chunk=%d", chunkBytes),
			wantRecs, gotRecs, wantQuar, gotQuar, wantErr, gotErr)
	}

	// Budget of one: the second corrupt line must trip it with the same
	// BudgetError counters on both paths.
	wantRecs, wantQuar, wantErr = collectDNSSerial(in, QuarantineBudget(1, 0))
	gotRecs, gotQuar, gotErr := collectDNSChunked(in, 4, 96, QuarantineBudget(1, 0))
	assertScanParity(t, "budget", wantRecs, gotRecs, wantQuar, gotQuar, wantErr, gotErr)
	var be *BudgetError
	if !errors.As(gotErr, &be) || be.Quarantined != 2 || !errors.Is(gotErr, ErrBudgetExceeded) {
		t.Fatalf("chunked budget error: %v", gotErr)
	}
}

// TestChunkedStrictAbortParity: in strict mode the chunked scan must
// yield exactly the records before the corrupt line, then return the
// parse error with the serial scanner's text.
func TestChunkedStrictAbortParity(t *testing.T) {
	input, _ := chunkTestDNS(t, 40)
	lines := strings.Split(strings.TrimSuffix(input, "\n"), "\n")
	lines[30] = "not\ta\trecord"
	in := strings.Join(lines, "\n") + "\n"
	wantRecs, _, wantErr := collectDNSSerial(in, Strict())
	if wantErr == nil {
		t.Fatal("serial scan unexpectedly clean")
	}
	gotRecs, _, gotErr := collectDNSChunked(in, 8, 128, Strict())
	assertScanParity(t, "strict", wantRecs, gotRecs, nil, nil, wantErr, gotErr)
}

// TestChunkedSingleChunkDegenerate: input far smaller than one chunk
// with many workers — the whole stream is one chunk, and the scan must
// still complete and match.
func TestChunkedSingleChunkDegenerate(t *testing.T) {
	input, _ := chunkTestDNS(t, 5)
	wantRecs, _, wantErr := collectDNSSerial(input, Strict())
	gotRecs, _, gotErr := collectDNSChunked(input, 16, ingestChunkBytes, Strict())
	assertScanParity(t, "single-chunk", wantRecs, gotRecs, nil, nil, wantErr, gotErr)
	if len(gotRecs) != 5 {
		t.Fatalf("got %d records", len(gotRecs))
	}
}

// TestChunkedCRLFAndUnterminatedTail: CRLF terminators are stripped
// like bufio.ScanLines does, and a final line without a newline is
// still parsed.
func TestChunkedCRLFAndUnterminatedTail(t *testing.T) {
	input, _ := chunkTestDNS(t, 10)
	crlf := strings.ReplaceAll(input, "\n", "\r\n")
	crlf = strings.TrimSuffix(crlf, "\r\n") // unterminated last record
	wantRecs, _, wantErr := collectDNSSerial(crlf, Strict())
	if wantErr != nil || len(wantRecs) != 10 {
		t.Fatalf("serial: %d recs, err %v", len(wantRecs), wantErr)
	}
	gotRecs, _, gotErr := collectDNSChunked(crlf, 4, 100, Strict())
	assertScanParity(t, "crlf", wantRecs, gotRecs, nil, nil, wantErr, gotErr)
}

// TestChunkedTooLongLineFailsLikeBufio: a line that outgrows the serial
// scanners' token cap fails the chunked scan with bufio.ErrTooLong too,
// after yielding the records before it.
func TestChunkedTooLongLineFailsLikeBufio(t *testing.T) {
	input, _ := chunkTestDNS(t, 3)
	in := input + strings.Repeat("y", maxIngestLine+2) + "\n"
	wantRecs, _, wantErr := collectDNSSerial(in, Strict())
	gotRecs, _, gotErr := collectDNSChunked(in, 2, 1<<16, Strict())
	assertScanParity(t, "too-long", wantRecs, gotRecs, nil, nil, wantErr, gotErr)
	if !errors.Is(gotErr, io.EOF) && gotErr == nil {
		t.Fatal("expected an error")
	}
	if len(gotRecs) != 3 {
		t.Fatalf("prefix records lost: %d", len(gotRecs))
	}
}

// TestChunkedConnParity covers the connection stream.
func TestChunkedConnParity(t *testing.T) {
	recs := make([]ConnRecord, 500)
	for i := range recs {
		recs[i] = ConnRecord{
			TS:        time.Duration(i) * time.Millisecond,
			Duration:  2 * time.Second,
			Proto:     TCP,
			Orig:      netip.AddrFrom4([4]byte{10, 0, byte(i % 50), 2}),
			OrigPort:  uint16(40000 + i),
			Resp:      netip.AddrFrom4([4]byte{93, 184, byte(i % 200), 34}),
			RespPort:  443,
			OrigBytes: int64(i) * 10, RespBytes: int64(i) * 100,
		}
	}
	var buf bytes.Buffer
	if err := WriteConns(&buf, recs); err != nil {
		t.Fatal(err)
	}
	input := buf.String()

	sc := NewConnScanner(strings.NewReader(input), Strict())
	var want []ConnRecord
	for sc.Scan() {
		want = append(want, sc.Record())
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	for _, workers := range []int{2, 8} {
		var got []ConnRecord
		err := scanChunked([]streamInput{{r: strings.NewReader(input)}}, workers, 96, Strict(), newParseStates[ConnRecord](workers), parseConnLineBytes,
			func(c *ConnRecord) error { got = append(got, *c); return nil })
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: conn records mismatch", workers)
		}
	}
}

// TestScannerSourceIngestWorkers drives the SetIngestWorkers seam: a
// ScannerSource with parallel ingest must stream exactly the records a
// serial source does, DNS and conns both.
func TestScannerSourceIngestWorkers(t *testing.T) {
	dnsIn, _ := chunkTestDNS(t, 300)
	var connBuf bytes.Buffer
	if err := WriteConns(&connBuf, []ConnRecord{{
		TS: time.Second, Duration: time.Second, Proto: TCP,
		Orig: netip.MustParseAddr("10.0.1.2"), OrigPort: 40000,
		Resp: netip.MustParseAddr("93.184.216.34"), RespPort: 443,
	}}); err != nil {
		t.Fatal(err)
	}

	collect := func(workers int) ([]DNSRecord, []ConnRecord, error) {
		src := NewScannerSource(strings.NewReader(dnsIn), strings.NewReader(connBuf.String()), QuarantineAll())
		src.SetIngestWorkers(workers)
		var ds []DNSRecord
		var cs []ConnRecord
		if err := src.StreamDNS(func(d *DNSRecord) error { ds = append(ds, *d); return nil }); err != nil {
			return nil, nil, err
		}
		if err := src.StreamConns(func(c *ConnRecord) error { cs = append(cs, *c); return nil }); err != nil {
			return nil, nil, err
		}
		return ds, cs, nil
	}
	wantDNS, wantConns, err := collect(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		gotDNS, gotConns, err := collect(w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wantDNS, gotDNS) || !reflect.DeepEqual(wantConns, gotConns) {
			t.Fatalf("SetIngestWorkers(%d): stream mismatch", w)
		}
	}
}

// writeDNSParts writes four DNS partitions of 60 records each into a
// fresh directory; edit returns each file's bytes from its lines (the
// header first).
func writeDNSParts(t *testing.T, edit func(part int, lines []string) string) string {
	t.Helper()
	input, _ := chunkTestDNS(t, 240)
	lines := strings.Split(strings.TrimSuffix(input, "\n"), "\n")
	dir := t.TempDir()
	for p := 0; p < 4; p++ {
		part := append([]string{lines[0]}, lines[1+p*60:1+(p+1)*60]...)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("part-%d.dns.tsv", p)), []byte(edit(p, part)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// inputTally is what ErrorPolicy.Done receives for one input.
type inputTally struct {
	path  string
	stats ScanStats
}

// serialScanEachFile is the reference for a DirSource: a serial scanner
// over each partition file in name order, with the file's path on its
// error and its quarantined lines, and its tally once read, stopping at
// the first error.
func serialScanEachFile(t *testing.T, dir string, policy ErrorPolicy) ([]DNSRecord, []Quarantined, []inputTally, error) {
	t.Helper()
	var quar []Quarantined
	var path string
	if policy.Quarantine {
		policy.Sink = func(q Quarantined) {
			q.Path = path
			quar = append(quar, q)
		}
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.dns.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	var recs []DNSRecord
	var tallies []inputTally
	for _, path = range paths {
		f, err := os.Open(path)
		if err != nil {
			return recs, quar, tallies, err
		}
		sc := NewDNSScanner(f, policy)
		for sc.Scan() {
			recs = append(recs, sc.Record())
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return recs, quar, tallies, fmt.Errorf("%s: %w", path, err)
		}
		tallies = append(tallies, inputTally{path, sc.Stats()})
	}
	return recs, quar, tallies, nil
}

// TestDirSourceMultiFileParity: the one chunk pipeline a DirSource runs
// over all its files must give what a serial scan of each file gives —
// records, quarantined lines, budget counts and file-prefixed errors —
// under a strict failure in file 2, quarantined lines in files 1 and 3
// with the budget tripping in file 3 (the budget counts per file, so a
// pipeline that carried counts across files would trip at file 3's
// first line), files without a trailing newline, an empty file, and a
// dangling partition symlink last. Quarantined lines must name their
// file, and ErrorPolicy.Done must get each file's tally, an empty
// file's included. It runs through DirSource at Workers 1, 2 and 8,
// and through the pipeline itself at chunk sizes down to one byte, so
// pooled buffers are overwritten long before the records parsed from
// them are compared.
func TestDirSourceMultiFileParity(t *testing.T) {
	join := func(lines []string) string { return strings.Join(lines, "\n") + "\n" }
	corrupt := "CORRUPT\tline"
	cases := []struct {
		name   string
		policy ErrorPolicy
		dir    func() string
		want   string // in the reference's error, "" for none
	}{
		{"strict failure in file 2", Strict(), func() string {
			return writeDNSParts(t, func(p int, lines []string) string {
				if p == 1 {
					lines[30] = "not\ta\trecord"
				}
				return join(lines)
			})
		}, "part-1.dns.tsv: trace: dns line 31"},
		{"budget trips in file 3", QuarantineBudget(1, 0), func() string {
			return writeDNSParts(t, func(p int, lines []string) string {
				switch p {
				case 0:
					lines[10] = corrupt
				case 2:
					lines[5], lines[40] = corrupt, corrupt
				}
				return join(lines)
			})
		}, "part-2.dns.tsv: trace: quarantine budget exceeded: 2 of 40 lines quarantined (line 41"},
		{"no trailing newline", QuarantineAll(), func() string {
			return writeDNSParts(t, func(p int, lines []string) string {
				if p == 3 {
					lines[20] = corrupt
				}
				if p%2 == 1 {
					return strings.Join(lines, "\n")
				}
				return join(lines)
			})
		}, ""},
		{"empty file", QuarantineAll(), func() string {
			return writeDNSParts(t, func(p int, lines []string) string {
				switch p {
				case 0:
					return ""
				case 2:
					lines[7] = corrupt
				}
				return join(lines)
			})
		}, ""},
		{"dangling symlink last", Strict(), func() string {
			dir := writeDNSParts(t, func(_ int, lines []string) string { return join(lines) })
			last := filepath.Join(dir, "part-3.dns.tsv")
			if err := os.Remove(last); err != nil {
				t.Fatal(err)
			}
			if err := os.Symlink(filepath.Join(dir, "missing"), last); err != nil {
				t.Fatal(err)
			}
			return dir
		}, "part-3.dns.tsv: no such file"},
	}
	for _, tc := range cases {
		dir := tc.dir()
		wantRecs, wantQuar, wantTallies, wantErr := serialScanEachFile(t, dir, tc.policy)
		if tc.want == "" && wantErr != nil || tc.want != "" && (wantErr == nil || !strings.Contains(wantErr.Error(), tc.want)) {
			t.Fatalf("%s: reference error %v, want one containing %q", tc.name, wantErr, tc.want)
		}
		check := func(label string, recs []DNSRecord, quar []Quarantined, tallies []inputTally, err error) {
			t.Helper()
			assertScanParity(t, tc.name+": "+label, wantRecs, recs, wantQuar, quar, wantErr, err)
			if !reflect.DeepEqual(tallies, wantTallies) {
				t.Fatalf("%s: %s: tallies %+v, serial %+v", tc.name, label, tallies, wantTallies)
			}
			var wb, gb *BudgetError
			if errors.As(wantErr, &wb) != errors.As(err, &gb) ||
				wb != nil && (wb.Quarantined != gb.Quarantined || wb.Lines != gb.Lines || wb.Last.Line != gb.Last.Line) {
				t.Fatalf("%s: %s: budget error %+v, serial %+v", tc.name, label, gb, wb)
			}
		}
		collect := func(policy ErrorPolicy, scan func(ErrorPolicy, func(*DNSRecord) error) error) ([]DNSRecord, []Quarantined, []inputTally, error) {
			var recs []DNSRecord
			var quar []Quarantined
			var tallies []inputTally
			if policy.Quarantine {
				policy.Sink = func(q Quarantined) { quar = append(quar, q) }
			}
			policy.Done = func(path string, st ScanStats) { tallies = append(tallies, inputTally{path, st}) }
			err := scan(policy, func(d *DNSRecord) error { recs = append(recs, *d); return nil })
			return recs, quar, tallies, err
		}
		for _, workers := range []int{1, 2, 8} {
			recs, quar, tallies, err := collect(tc.policy, func(policy ErrorPolicy, yield func(*DNSRecord) error) error {
				src := NewDirSource(dir, policy)
				src.SetIngestWorkers(workers)
				return src.StreamDNS(yield)
			})
			check(fmt.Sprintf("DirSource workers=%d", workers), recs, quar, tallies, err)
		}
		for _, workers := range []int{2, 8} {
			for _, chunkBytes := range []int{1, 7, 100, 4096} {
				recs, quar, tallies, err := collect(tc.policy, func(policy ErrorPolicy, yield func(*DNSRecord) error) error {
					inputs, err := (&DirSource{dir: dir}).partitions(".dns.tsv", ".dns.log")
					if err != nil {
						return err
					}
					return scanChunked(inputs, workers, chunkBytes, policy, newParseStates[DNSRecord](workers), parseDNSLineBytes, yield)
				})
				check(fmt.Sprintf("pipeline workers=%d chunk=%d", workers, chunkBytes), recs, quar, tallies, err)
			}
		}
	}
}

// TestShortestRecordLine pins minRecordLine: the shortest DNS line
// parses and is that long, deleting any one of its bytes makes it fail,
// and the shortest connection line parses and is longer.
func TestShortestRecordLine(t *testing.T) {
	st := newParseState()
	shortest := "0\t0\t::\t::\t0\t\t0\t0\t"
	if len(shortest) != minRecordLine {
		t.Fatalf("shortest line is %d bytes, minRecordLine %d", len(shortest), minRecordLine)
	}
	var d DNSRecord
	if err := parseDNSLineBytes(1, []byte(shortest), st, &d); err != nil {
		t.Fatalf("shortest DNS line: %v", err)
	}
	for i := range shortest {
		cut := shortest[:i] + shortest[i+1:]
		if err := parseDNSLineBytes(1, []byte(cut), st, &d); err == nil {
			t.Errorf("DNS line %q of %d bytes parses", cut, len(cut))
		}
	}
	conn := "0\t0\ttcp\t::\t0\t::\t0\t0\t0"
	var c ConnRecord
	if err := parseConnLineBytes(1, []byte(conn), st, &c); err != nil || len(conn) < minRecordLine {
		t.Fatalf("shortest connection line (%d bytes): %v", len(conn), err)
	}
}

// TestParseInPlaceWritesEveryField: the parsers fill a reused slot, so
// a line parsed into a slot holding another record, every field set,
// must come out as it does from a zeroed slot: an answerless, a
// 9-field and a 'F' line must clear what the stale record had.
func TestParseInPlaceWritesEveryField(t *testing.T) {
	st := newParseState()
	addr := netip.MustParseAddr("192.0.2.9")
	staleDNS := DNSRecord{QueryTS: 1, TS: 2, Client: addr, Resolver: addr, ID: 3, Query: "stale.example",
		QType: 4, RCode: 5, Answers: []Answer{{Addr: addr, TTL: 6}}, Retries: 7, TC: true}
	for _, line := range []string{
		"1.000000\t1.010000\t10.1.0.1\t8.8.8.8\t5\thost.example\t1\t0\t203.0.113.1/30.000000\t0\tF",
		"1.000000\t1.010000\t10.1.0.1\t8.8.8.8\t5\thost.example\t28\t0\t-\t2\tT",
		"1.000000\t1.010000\t10.1.0.1\t8.8.8.8\t5\thost.example\t1\t0\t203.0.113.1/30.000000",
		"1.000000\t1.010000\t::1\t::\t0\t\t0\t0\t-",
	} {
		var want DNSRecord
		if err := parseDNSLineBytes(1, []byte(line), st, &want); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		got := staleDNS
		if err := parseDNSLineBytes(1, []byte(line), st, &got); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%q into a used slot: %+v (err %v), want %+v", line, got, err, want)
		}
	}
	staleConn := ConnRecord{TS: 1, Duration: 2, Proto: UDP, Orig: addr, OrigPort: 3, Resp: addr, RespPort: 4,
		OrigBytes: 5, RespBytes: 6}
	line := "0.500000\t0.000000\ttcp\t10.1.0.1\t0\t203.0.113.1\t0\t0\t0"
	var want ConnRecord
	if err := parseConnLineBytes(1, []byte(line), st, &want); err != nil {
		t.Fatal(err)
	}
	got := staleConn
	if err := parseConnLineBytes(1, []byte(line), st, &got); err != nil || got != want {
		t.Errorf("%q into a used slot: %+v (err %v), want %+v", line, got, err, want)
	}
}

// TestBlankLinesDoNotPresizeRecords streams half a million blank lines
// (no records) through a 2-worker ScannerSource: the chunk's record
// slice is sized by its bound on records, not by its line count, so the
// stream allocates a few MiB, not a record per blank line (about 65 MiB).
func TestBlankLinesDoNotPresizeRecords(t *testing.T) {
	blank := strings.Repeat("\n", 500_000)
	src := NewScannerSource(strings.NewReader(blank), strings.NewReader(""), Strict())
	src.SetIngestWorkers(2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := src.StreamDNS(func(*DNSRecord) error {
		t.Fatal("a blank line yielded a record")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	mib := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("streaming %d blank lines allocated %.1f MiB", len(blank), mib)
	if mib > 16 {
		t.Fatalf("streaming %d blank lines allocated %.1f MiB", len(blank), mib)
	}
}
