package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"time"

	"dnscontext/internal/trace"
)

// Spill layer for the out-of-core analyzer. When AnalyzeSource's memory
// budget trips, records stop accumulating in RAM and are hashed by
// client into partition files — hash(client) % spillParts, one file per
// (stream, partition) — in arrival (= time) order. Because pairing is
// strictly per-client, each partition is a self-contained slice of the
// trace: the classify phase loads one partition at a time, so peak
// memory is one partition, not the trace (AnalyzeSource finalizes each
// client as it is classified; only CollectShard accumulates a shard).
//
// The format is a transient process-private scratch encoding — framed
// little-endian records, no header or checksum — created and deleted
// within one run; durability and versioning live in the checkpoint
// envelope that shard files use, not here.

// spillParts is the number of hash partitions each stream spills into.
// Each partition must fit in memory during the classify phase, so a
// trace N bytes over budget wants spillParts comfortably above N/budget.
const spillParts = 32

// spillBufBytes is the write buffer of one partition. A writer makes a
// partition's buffer at its first frame and drops them all when its
// stream ends, so at most spillParts of them (512 KiB) are live, and
// only while a stream writes.
const spillBufBytes = 16 << 10

// spillWriter owns one stream's partition files.
type spillWriter struct {
	files []*os.File
	bufs  []*bufio.Writer // nil until the partition's first frame
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

func newSpillWriter(dir, stream string) (*spillWriter, error) {
	w := &spillWriter{
		files:  make([]*os.File, spillParts),
		bufs:   make([]*bufio.Writer, spillParts),
		counts: make([]spillCount, spillParts),
	}
	for p := 0; p < spillParts; p++ {
		f, err := os.Create(spillPath(dir, stream, p))
		if err != nil {
			w.close()
			return nil, fmt.Errorf("dnscontext: creating spill partition: %w", err)
		}
		w.files[p] = f
	}
	return w, nil
}

// write appends the encoded frame in scratch to partition p.
func (w *spillWriter) write(p int) error {
	b := w.bufs[p]
	if b == nil {
		b = bufio.NewWriterSize(w.files[p], spillBufBytes)
		w.bufs[p] = b
	}
	_, err := b.Write(w.scratch)
	return err
}

// finish ends the writer's stream: it flushes every partition, so
// readers see complete frames, drops the buffers and closes the files.
// The counts stay.
func (w *spillWriter) finish() error {
	for p, b := range w.bufs {
		if b == nil {
			continue
		}
		w.bufs[p] = nil
		if err := b.Flush(); err != nil {
			return fmt.Errorf("dnscontext: flushing spill partition: %w", err)
		}
	}
	return w.close()
}

// close closes the partition files still open.
func (w *spillWriter) close() error {
	var err error
	for p, f := range w.files {
		if f == nil {
			continue
		}
		w.files[p] = nil
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("dnscontext: closing spill partition: %w", cerr)
		}
	}
	return err
}

// partitionOf assigns a client to a spill partition: FNV-64a over the
// canonical 16-byte address form, mod the partition count. Stable
// across processes, so distributed collectors partition identically.
func partitionOf(client netip.Addr) int {
	b := client.As16()
	h := uint64(0xcbf29ce484222325)
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return int(h % spillParts)
}

// Record frames. An address is a u8 length tag and its raw bytes: 0
// for the zero Addr, 4 or 16 for an address without a zone, and
// zonedAddrTag for an IPv6 address with one, whose 16 bytes are
// followed by the zone as a u32 length and its bytes. A query name and
// an answer list carry u32 counts: one 4 MiB TSV line can hold a name
// or an answer list longer than 65,535. Shard payloads (shard files and
// checkpoints) use the same address encoding.

// zonedAddrTag is the length tag of a zoned address; no address without
// a zone uses it, so those encode as they always have.
const zonedAddrTag = 0xff

func appendAddr(b []byte, a netip.Addr) []byte {
	if zone := a.Zone(); zone != "" {
		ip := a.As16()
		b = append(b, zonedAddrTag)
		b = append(b, ip[:]...)
		b = appendU32(b, uint32(len(zone)))
		return append(b, zone...)
	}
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
	b = appendU32(b, uint32(len(d.Query)))
	b = append(b, d.Query...)
	b = appendU16(b, d.QType)
	b = append(b, d.RCode)
	b = appendU32(b, uint32(len(d.Answers)))
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

func (w *spillWriter) writeDNS(d *trace.DNSRecord) error {
	p := partitionOf(d.Client)
	w.counts[p].frames++
	w.counts[p].answers += len(d.Answers)
	w.scratch = appendDNSFrame(w.scratch[:0], d)
	return w.write(p)
}

func (w *spillWriter) writeConn(c *trace.ConnRecord) error {
	p := partitionOf(c.Orig)
	w.counts[p].frames++
	w.scratch = appendConnFrame(w.scratch[:0], c)
	return w.write(p)
}

// Partition reload. A partition must fit in memory anyway (see
// spillParts), so the loader reads each file whole into a buffer it
// reuses and decodes it in one pass straight into a record store: the
// writer's frame and answer counts size the record and answer arrays
// exactly, addresses and query names are interned per partition, and
// no field allocates.

// frameReader is a cursor over little-endian bytes: spill frames and
// shard payloads. A read past the end sets err and yields zero values,
// so a decoder checks err once per frame.
type frameReader struct {
	b   []byte
	err error
}

func (f *frameReader) take(n int) []byte {
	if f.err != nil || n < 0 || len(f.b) < n {
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

// addr is the inverse of appendAddr.
func (f *frameReader) addr() netip.Addr {
	switch n := f.u8(); {
	case f.err != nil, n == 0:
	case n == 4:
		if v := f.take(4); v != nil {
			return netip.AddrFrom4([4]byte(v))
		}
	case n == 16:
		if v := f.take(16); v != nil {
			return netip.AddrFrom16([16]byte(v))
		}
	case n == zonedAddrTag:
		v := f.take(16)
		zone := f.take(int(f.u32()))
		if f.err == nil && len(zone) == 0 {
			f.fail(errors.New("zoned address with an empty zone"))
		}
		if f.err == nil {
			return netip.AddrFrom16([16]byte(v)).WithZone(string(zone))
		}
	default:
		f.fail(fmt.Errorf("address length %d", n))
	}
	return netip.Addr{}
}

// decodeDNSFrames decodes exactly `frames` DNS frames holding `answers`
// answers in total, and nothing else, from b into st: its records and
// answers, with addresses, names and resolvers interned in its tables
// in the order symbolTables.dns interns them.
func decodeDNSFrames(b []byte, frames, answers int, st *recordStore) error {
	st.dns = make([]dnsRec, frames)
	st.answers = make([]answerRec, answers)
	f := frameReader{b: b}
	next := uint32(0) // the next unused answer
	for i := range st.dns {
		d := &st.dns[i]
		d.queryTS = time.Duration(f.i64())
		d.ts = time.Duration(f.i64())
		d.client = st.addr(f.addr())
		res := f.addr()
		d.id = f.u16()
		d.name = st.names.InternBytes(f.take(int(f.u32())))
		d.res = st.resolver(res)
		d.qtype = f.u16()
		d.rcode = f.u8()
		n := f.u32()
		if n > uint32(answers)-next {
			f.fail(fmt.Errorf("frame %d has %d answers, %d remain", i, n, uint32(answers)-next))
			n = 0
		}
		d.ans, d.nAns = next, n
		var minTTL time.Duration
		for k := range st.answersOf(d) {
			a := &st.answers[next+uint32(k)]
			a.addr = st.addr(f.addr())
			a.ttl = time.Duration(f.i64())
			if k == 0 || a.ttl < minTTL {
				minTTL = a.ttl
			}
		}
		next += n
		d.expiry = d.ts + minTTL
		d.retries = f.u8()
		d.tc = f.u8() != 0
		if f.err != nil {
			return fmt.Errorf("frame %d: %w", i, f.err)
		}
	}
	return decodedAll(f.b, answers-int(next))
}

// decodeConnFrames decodes exactly `frames` connection frames, and
// nothing else, from b into st.
func decodeConnFrames(b []byte, frames int, st *recordStore) error {
	st.conns = make([]connRec, frames)
	f := frameReader{b: b}
	for i := range st.conns {
		c := &st.conns[i]
		c.ts = time.Duration(f.i64())
		c.dur = time.Duration(f.i64())
		c.proto = trace.Proto(f.u8())
		c.orig = st.addr(f.addr())
		c.origPort = f.u16()
		c.resp = st.addr(f.addr())
		c.respPort = f.u16()
		c.origBytes = f.i64()
		c.respBytes = f.i64()
		if f.err != nil {
			return fmt.Errorf("frame %d: %w", i, f.err)
		}
	}
	return decodedAll(f.b, 0)
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

// partition is one reloaded spill partition, a small trace: a record
// store with partition-local address and name tables and the
// whole-trace resolver numbering, and its records grouped by client
// with the same function the in-memory pipeline uses.
type partition struct {
	st     *recordStore
	shards shardSet
}

// partitionLoader reloads spill partitions, reusing its read buffer from
// one partition to the next. resolvers is the whole-trace resolver
// table the accumulators built; every partition numbers resolvers as
// it does.
type partitionLoader struct {
	dir       string
	resolvers []resolverStat
	buf       []byte
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
	st := &recordStore{symbolTables: newSymbolTables()}
	for i := range l.resolvers {
		st.resolver(l.resolvers[i].addr)
	}
	if err := decodeDNSFrames(b, dns.frames, dns.answers, st); err != nil {
		return nil, corruptPartition(path, err)
	}
	if len(st.resolvers) > len(l.resolvers) {
		return nil, corruptPartition(path, fmt.Errorf("resolver %v was never ingested", st.resolvers[len(l.resolvers)].addr))
	}
	path = spillPath(l.dir, "conn", p)
	if b, err = l.read(path); err != nil {
		return nil, err
	}
	if err := decodeConnFrames(b, conn.frames, st); err != nil {
		return nil, corruptPartition(path, err)
	}
	return &partition{st: st, shards: buildShards(st)}, nil
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
