package core

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"os"
	"time"

	"dnscontext/internal/trace"
)

// Spill layer for the out-of-core analyzer. When AnalyzeSource's memory
// budget trips, records stop accumulating in RAM and are hashed by
// client into partition files — hash(client) % SpillParts, one file per
// (stream, partition) — in arrival (= time) order. Because pairing is
// strictly per-client, each partition is a self-contained slice of the
// trace: the classify phase loads one partition at a time, so peak
// memory is one partition plus the accumulating shard, not the trace.
//
// The format is a transient process-private scratch encoding — framed
// little-endian records, no header or checksum — created and deleted
// within one run; durability and versioning live in the checkpoint
// envelope that shard files use, not here.

// defaultSpillParts is the partition count when Options.SpillParts is 0.
const defaultSpillParts = 32

// spillWriter owns one stream's partition files.
type spillWriter struct {
	files []*os.File
	bufs  []*bufio.Writer
	// counts tallies what each partition holds, so the reader can size
	// its arrays exactly and tell a truncated partition from a whole one.
	counts []spillCount
	// scratch is the per-record encode buffer, reused across writes.
	scratch []byte
}

// spillCount is what one partition file holds: its frames and, for
// the DNS stream, the answers they carry.
type spillCount struct {
	frames, answers int
}

func newSpillWriter(dir, stream string, parts int) (*spillWriter, error) {
	w := &spillWriter{
		files:  make([]*os.File, parts),
		bufs:   make([]*bufio.Writer, parts),
		counts: make([]spillCount, parts),
	}
	for p := 0; p < parts; p++ {
		f, err := os.Create(spillPath(dir, stream, p))
		if err != nil {
			w.close()
			return nil, fmt.Errorf("dnscontext: creating spill partition: %w", err)
		}
		w.files[p] = f
		w.bufs[p] = bufio.NewWriterSize(f, 1<<16)
	}
	return w, nil
}

// flushAll flushes every partition's buffer so readers see complete
// frames.
func (w *spillWriter) flushAll() error {
	for _, b := range w.bufs {
		if err := b.Flush(); err != nil {
			return fmt.Errorf("dnscontext: flushing spill partition: %w", err)
		}
	}
	return nil
}

func (w *spillWriter) close() {
	for _, f := range w.files {
		if f != nil {
			f.Close()
		}
	}
}

// partitionOf assigns a client to a spill partition: FNV-64a over the
// canonical 16-byte address form, mod the partition count. Stable
// across processes, so distributed collectors partition identically.
func partitionOf(client netip.Addr, parts int) int {
	b := client.As16()
	h := uint64(0xcbf29ce484222325)
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return int(h % uint64(parts))
}

// Record frames. Addresses are u8 length + raw bytes; strings and
// answer lists carry u16 counts (the TSV formats they arrive from can't
// exceed that).

func appendAddr(b []byte, a netip.Addr) []byte {
	s := a.AsSlice()
	b = append(b, uint8(len(s)))
	return append(b, s...)
}

func appendU16(b []byte, v uint16) []byte {
	return binary.LittleEndian.AppendUint16(b, v)
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendI64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

func appendDNSFrame(b []byte, d *trace.DNSRecord) []byte {
	b = appendI64(b, int64(d.QueryTS))
	b = appendI64(b, int64(d.TS))
	b = appendAddr(b, d.Client)
	b = appendAddr(b, d.Resolver)
	b = appendU16(b, d.ID)
	q := d.Query
	if len(q) > 0xffff {
		// Cannot happen for records parsed from the TSV logs; truncate
		// rather than corrupt the frame if a synthetic record tries.
		q = q[:0xffff]
	}
	b = appendU16(b, uint16(len(q)))
	b = append(b, q...)
	b = appendU16(b, d.QType)
	b = append(b, d.RCode)
	b = appendU16(b, uint16(len(d.Answers)))
	for _, an := range d.Answers {
		b = appendAddr(b, an.Addr)
		b = appendI64(b, int64(an.TTL))
	}
	b = append(b, d.Retries)
	if d.TC {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return b
}

func appendConnFrame(b []byte, c *trace.ConnRecord) []byte {
	b = appendI64(b, int64(c.TS))
	b = appendI64(b, int64(c.Duration))
	b = append(b, uint8(c.Proto))
	b = appendAddr(b, c.Orig)
	b = appendU16(b, c.OrigPort)
	b = appendAddr(b, c.Resp)
	b = appendU16(b, c.RespPort)
	b = appendI64(b, c.OrigBytes)
	b = appendI64(b, c.RespBytes)
	return b
}

func (w *spillWriter) writeDNS(d *trace.DNSRecord, parts int) error {
	p := partitionOf(d.Client, parts)
	w.counts[p].frames++
	w.counts[p].answers += len(d.Answers)
	w.scratch = appendDNSFrame(w.scratch[:0], d)
	_, err := w.bufs[p].Write(w.scratch)
	return err
}

func (w *spillWriter) writeConn(c *trace.ConnRecord, parts int) error {
	p := partitionOf(c.Orig, parts)
	w.counts[p].frames++
	w.scratch = appendConnFrame(w.scratch[:0], c)
	_, err := w.bufs[p].Write(w.scratch)
	return err
}

// Partition reload. A partition must fit in memory anyway (see
// Options.SpillParts), so the loader reads each file whole into a
// buffer it reuses and decodes it in one pass: the writer's frame and
// answer counts size the record array and the answer arena exactly,
// query names are interned per partition, and no field allocates.

// frameReader is a cursor over little-endian bytes: spill frames and
// shard payloads. A read past the end sets err and yields zero values,
// so a decoder checks err once per frame.
type frameReader struct {
	b   []byte
	err error
}

func (f *frameReader) take(n int) []byte {
	if f.err != nil || len(f.b) < n {
		f.fail(io.ErrUnexpectedEOF)
		return nil
	}
	v := f.b[:n:n]
	f.b = f.b[n:]
	return v
}

func (f *frameReader) fail(err error) {
	if f.err == nil {
		f.err = err
	}
}

func (f *frameReader) u8() uint8 {
	if v := f.take(1); v != nil {
		return v[0]
	}
	return 0
}

func (f *frameReader) u16() uint16 {
	if v := f.take(2); v != nil {
		return binary.LittleEndian.Uint16(v)
	}
	return 0
}

func (f *frameReader) u32() uint32 {
	if v := f.take(4); v != nil {
		return binary.LittleEndian.Uint32(v)
	}
	return 0
}

func (f *frameReader) i64() int64 {
	if v := f.take(8); v != nil {
		return int64(binary.LittleEndian.Uint64(v))
	}
	return 0
}

// addr is the inverse of appendAddr: length 0 is the zero Addr.
func (f *frameReader) addr() netip.Addr {
	n := f.u8()
	v := f.take(int(n))
	switch {
	case f.err != nil:
	case n == 4:
		return netip.AddrFrom4([4]byte(v))
	case n == 16:
		return netip.AddrFrom16([16]byte(v))
	case n != 0:
		f.fail(fmt.Errorf("address length %d", n))
	}
	return netip.Addr{}
}

// decodeDNSFrames decodes exactly `frames` DNS frames holding `answers`
// answers in total, and nothing else, from b. Answers share one arena;
// equal names share one string.
func decodeDNSFrames(b []byte, frames, answers int) ([]trace.DNSRecord, error) {
	recs := make([]trace.DNSRecord, frames)
	arena := make([]trace.Answer, answers)
	names := trace.NewSymbolTable()
	f := frameReader{b: b}
	for i := range recs {
		d := &recs[i]
		d.QueryTS = time.Duration(f.i64())
		d.TS = time.Duration(f.i64())
		d.Client = f.addr()
		d.Resolver = f.addr()
		d.ID = f.u16()
		d.Query = names.Canonical(f.take(int(f.u16())))
		d.QType = f.u16()
		d.RCode = f.u8()
		if n := int(f.u16()); n > len(arena) {
			f.fail(fmt.Errorf("frame %d has %d answers, %d remain", i, n, len(arena)))
		} else if n > 0 {
			d.Answers, arena = arena[:n:n], arena[n:]
			for j := range d.Answers {
				d.Answers[j].Addr = f.addr()
				d.Answers[j].TTL = time.Duration(f.i64())
			}
		}
		d.Retries = f.u8()
		d.TC = f.u8() != 0
		if f.err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, f.err)
		}
	}
	if err := decodedAll(f.b, len(arena)); err != nil {
		return nil, err
	}
	return recs, nil
}

// decodeConnFrames decodes exactly `frames` connection frames, and
// nothing else, from b.
func decodeConnFrames(b []byte, frames int) ([]trace.ConnRecord, error) {
	recs := make([]trace.ConnRecord, frames)
	f := frameReader{b: b}
	for i := range recs {
		c := &recs[i]
		c.TS = time.Duration(f.i64())
		c.Duration = time.Duration(f.i64())
		c.Proto = trace.Proto(f.u8())
		c.Orig = f.addr()
		c.OrigPort = f.u16()
		c.Resp = f.addr()
		c.RespPort = f.u16()
		c.OrigBytes = f.i64()
		c.RespBytes = f.i64()
		if f.err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, f.err)
		}
	}
	if err := decodedAll(f.b, 0); err != nil {
		return nil, err
	}
	return recs, nil
}

// decodedAll checks that a decode consumed every byte and answer the
// writer counted.
func decodedAll(rest []byte, answers int) error {
	if len(rest) > 0 {
		return fmt.Errorf("%d bytes after the last frame", len(rest))
	}
	if answers > 0 {
		return fmt.Errorf("%d answers missing", answers)
	}
	return nil
}

// partition is one reloaded spill partition, a small dataset: its
// records in arrival (= time) order, each DNS record's expiry and
// resolver symbol, and per-client index lists from the same grouping
// function the in-memory pipeline uses.
type partition struct {
	dns    []trace.DNSRecord
	conns  []trace.ConnRecord
	expiry []time.Duration
	rsym   []int32
	shards []clientShard
}

// partitionLoader reloads spill partitions, reusing its read buffer from
// one partition to the next. rsyms numbers resolvers as the whole-trace
// accumulators did.
type partitionLoader struct {
	dir   string
	rsyms map[netip.Addr]int32
	buf   []byte
}

// load reads partition p of both streams, written as the given counts.
// Clients come in first-appearance order, purely for reproducible
// scheduling; results do not depend on it.
func (l *partitionLoader) load(p int, dns, conn spillCount) (*partition, error) {
	path := spillPath(l.dir, "dns", p)
	b, err := l.read(path)
	if err != nil {
		return nil, err
	}
	pt := &partition{}
	if pt.dns, err = decodeDNSFrames(b, dns.frames, dns.answers); err != nil {
		return nil, corruptPartition(path, err)
	}
	path = spillPath(l.dir, "conn", p)
	if b, err = l.read(path); err != nil {
		return nil, err
	}
	if pt.conns, err = decodeConnFrames(b, conn.frames); err != nil {
		return nil, corruptPartition(path, err)
	}
	pt.expiry = make([]time.Duration, len(pt.dns))
	pt.rsym = make([]int32, len(pt.dns))
	for i := range pt.dns {
		pt.expiry[i] = pt.dns[i].ExpiresAt()
		pt.rsym[i] = l.rsyms[pt.dns[i].Resolver]
	}
	// One worker: the loader is the producer goroutine, and a partition
	// is small. The only error is cancellation, which a background
	// context never reports.
	pt.shards, _ = buildShards(context.Background(), 1, pt.dns, pt.conns)
	return pt, nil
}

// read loads the file at path whole into the loader's buffer.
func (l *partitionLoader) read(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	n := int(fi.Size())
	if cap(l.buf) < n {
		l.buf = make([]byte, n)
	}
	if _, err := io.ReadFull(f, l.buf[:n]); err != nil {
		return nil, fmt.Errorf("dnscontext: reading spill partition %s: %w", path, err)
	}
	return l.buf[:n], nil
}

func corruptPartition(path string, err error) error {
	return fmt.Errorf("dnscontext: spill partition %s: unexpected frame: %w", path, err)
}
