package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// Allocation budgets (ISSUE 5): the zero-copy scanner path must stay
// allocation-free per line in the steady state — named strings come
// from the intern table, addresses from the parse cache, answers from
// the shared arena — so a regression back to per-line garbage fails
// `go test` instead of only showing up in benchmarks.

// allocTSV builds a DNS TSV blob of lines cycling through a small set
// of names and addresses, the shape of a real trace (bounded symbol
// universe, unbounded lines).
func allocTSV(lines int) string {
	var sb strings.Builder
	sb.WriteString(dnsFields + "\n")
	for i := 0; i < lines; i++ {
		name := fmt.Sprintf("host%d.example.com", i%16)
		addr := fmt.Sprintf("192.0.2.%d", i%32)
		fmt.Fprintf(&sb, "%d.%06d\t%d.%06d\t10.1.0.1\t203.0.113.7\t%d\t%s\t1\t0\t%s/300.000000,198.51.100.%d/60.000000\t0\tF\n",
			i, i%1000000, i, (i+400)%1000000, i%65536, name, addr, i%32)
	}
	return sb.String()
}

// scanAllocBudget is the gate both scanner budgets share: a scan may
// pay a fixed setup cost (bufio buffer, parse state, intern table, the
// first arena block — independent of input length) plus at most 0.01
// allocations per line. A regression to even one allocation per line
// overshoots the budget by two orders of magnitude.
func scanAllocBudget(t *testing.T, stream string, lines int, perRun float64) {
	t.Helper()
	budget := 200 + 0.01*float64(lines)
	if perRun > budget {
		t.Fatalf("%s scanner allocates %.0f allocs per %d-line scan; budget is %.0f (fixed setup + 0.01/line)",
			stream, perRun, lines, budget)
	}
}

// TestScannerAllocsPerLine gates the per-line DNS scanner cost.
func TestScannerAllocsPerLine(t *testing.T) {
	const lines = 8000
	input := allocTSV(lines)
	// Warm check: the input must parse cleanly or the budget is vacuous.
	if recs, err := ReadDNS(strings.NewReader(input)); err != nil || len(recs) != lines {
		t.Fatalf("fixture: %d records, err %v", len(recs), err)
	}
	perRun := testing.AllocsPerRun(5, func() {
		sc := NewDNSScanner(strings.NewReader(input), Strict())
		n := 0
		for sc.Scan() {
			n++
		}
		if sc.Err() != nil || n != lines {
			t.Fatalf("scan: n=%d err=%v", n, sc.Err())
		}
	})
	scanAllocBudget(t, "dns", lines, perRun)
}

// TestConnScannerAllocsPerLine is the same gate for the conn stream.
func TestConnScannerAllocsPerLine(t *testing.T) {
	const lines = 8000
	var sb strings.Builder
	sb.WriteString(connFields + "\n")
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&sb, "%d.%06d\t1.500000\ttcp\t10.1.0.1\t%d\t198.51.100.%d\t443\t%d\t%d\n",
			i, i%1000000, 40000+i%20000, i%32, i*10, i*100)
	}
	input := sb.String()
	if recs, err := ReadConns(strings.NewReader(input)); err != nil || len(recs) != lines {
		t.Fatalf("fixture: %d records, err %v", len(recs), err)
	}
	perRun := testing.AllocsPerRun(5, func() {
		sc := NewConnScanner(strings.NewReader(input), Strict())
		n := 0
		for sc.Scan() {
			n++
		}
		if sc.Err() != nil || n != lines {
			t.Fatalf("scan: n=%d err=%v", n, sc.Err())
		}
	})
	scanAllocBudget(t, "conn", lines, perRun)
}

// TestChunkedScanBytesPerLine gates the chunked scan's heap traffic
// over a DirSource of four partition files: at most each line's input
// bytes, its answers in the parse arena, and half a record. A chunk's
// input buffer and its answers are the scan's own cost; the record
// slices are reused once the merge has yielded them, and the parse
// states (name table and address cache) serve every file of the
// stream, so neither is paid per chunk or per file. Allocating a fresh
// record slice per chunk, or fresh parse states per file, costs about
// a record per line. Allocation counts cannot tell the two apart: both
// allocate about once per hundred lines.
func TestChunkedScanBytesPerLine(t *testing.T) {
	const files, perFile, runs = 4, 8000, 4
	const lines = files * perFile
	dir := t.TempDir()
	input := allocTSV(perFile)
	for f := 0; f < files; f++ {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("part-%d.dns.tsv", f)), []byte(input), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	scan := func() {
		src := NewDirSource(dir, Strict())
		src.SetIngestWorkers(2)
		n := 0
		if err := src.StreamDNS(func(*DNSRecord) error { n++; return nil }); err != nil || n != lines {
			t.Fatalf("scan: n=%d err=%v", n, err)
		}
	}
	scan() // warm the runtime's caches
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		scan()
	}
	runtime.ReadMemStats(&after)
	perLine := float64(after.TotalAlloc-before.TotalAlloc) / (runs * lines)
	inputPerLine := float64(len(input)) / perFile
	answersPerLine := 2 * float64(unsafe.Sizeof(Answer{})) // allocTSV writes two answers a line
	if budget := inputPerLine + answersPerLine + float64(unsafe.Sizeof(DNSRecord{}))/2; perLine > budget {
		t.Fatalf("chunked scan allocates %.0f B/line on %.0f-byte lines; budget is %.0f (line + answers + record/2)",
			perLine, inputPerLine, budget)
	}
}
