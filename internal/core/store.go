package core

// The record store: the one resident form of a trace inside the
// analysis. trace.Dataset and its record types are the interchange of
// the codecs, of Source and of the in-memory API; every entry point
// converts each record exactly once, at its edge, into the compact
// records below, and every phase after that reads only the store.
//
// The record types are plain structs with no pointer, string, slice,
// map or interface field, so the garbage collector never scans the
// record arrays and storing a record takes no write barrier. Addresses
// become dense int32 symbols into the store's address table, keyed on
// the full netip.Addr (IPv6 zones included), query names become
// symbols of its name table, and resolvers symbols of its resolver
// table. The tables are the only part of the store that holds pointers,
// and they grow with the distinct values, not with the records.
//
// Numbering is a function of record order alone: every table numbers
// its values by first appearance over the DNS records in order (each
// record's client, query name, resolver, then answer addresses) and
// then over the connections (originator, then responder). A stream
// ingest converts records as they arrive; buildStore converts a
// resident dataset in parallel chunks and renumbers them to the same
// first-appearance order, so both build identical stores.

import (
	"context"
	"encoding/binary"
	"net/netip"
	"runtime/pprof"
	"time"
	"unsafe"

	"dnscontext/internal/parallel"
	"dnscontext/internal/trace"
)

// dnsRec is one DNS transaction as the analysis keeps it.
type dnsRec struct {
	queryTS, ts time.Duration
	// expiry is ts plus the smallest answer TTL (trace.DNSRecord's
	// ExpiresAt), computed once at conversion.
	expiry time.Duration
	client int32     // address symbol
	name   trace.Sym // query-name symbol
	res    int32     // resolver symbol
	// The record's answers are recordStore.answers[ans : ans+nAns].
	ans, nAns uint32
	id, qtype uint16
	rcode     uint8
	retries   uint8
	tc        bool
}

// duration is the client-observed lookup time.
func (d *dnsRec) duration() time.Duration { return d.ts - d.queryTS }

// answerRec is one answer of a DNS record.
type answerRec struct {
	ttl  time.Duration
	addr int32 // address symbol
}

// connRec is one connection summary as the analysis keeps it.
type connRec struct {
	ts, dur              time.Duration
	origBytes, respBytes int64
	orig, resp           int32 // address symbols
	origPort, respPort   uint16
	proto                trace.Proto
}

// throughputBps is trace.ConnRecord's ThroughputBps.
func (c *connRec) throughputBps() float64 {
	if c.dur <= 0 {
		return 0
	}
	return float64((c.origBytes+c.respBytes)*8) / c.dur.Seconds()
}

// Budget charges of the resident form: the record types' sizes, and
// what one new table entry holds beyond its value (a table slot plus a
// map key and value for addresses and resolvers; two string headers
// and a symbol for names).
const (
	dnsRecBytes        = int64(unsafe.Sizeof(dnsRec{}))
	answerRecBytes     = int64(unsafe.Sizeof(answerRec{}))
	connRecBytes       = int64(unsafe.Sizeof(connRec{}))
	addrEntryBytes     = 2*int64(unsafe.Sizeof(netip.Addr{})) + 4
	resolverEntryBytes = int64(unsafe.Sizeof(resolverStat{})) + int64(unsafe.Sizeof(netip.Addr{})) + 4
	nameEntryBytes     = 2*int64(unsafe.Sizeof("")) + 4
)

// symbolTables numbers a store's addresses, query names and resolvers.
type symbolTables struct {
	addrs []netip.Addr // by address symbol
	// IPv4 addresses, nearly all of a trace, are keyed on their four
	// bytes, which hash much faster than a whole netip.Addr; addrSym
	// holds every other address.
	addr4   map[uint32]int32
	addrSym map[netip.Addr]int32
	names   *trace.SymbolTable
	// resolvers holds each resolver's address and (count, min-duration)
	// summary, indexed by resolver symbol: deriveThresholds' inputs,
	// accumulated as the records convert.
	resolvers []resolverStat
	resSym    map[netip.Addr]int32
	// charged is the bytes the entries added so far hold, for the
	// memory budget.
	charged int64
}

func newSymbolTables() symbolTables {
	return symbolTables{
		addr4:   make(map[uint32]int32),
		addrSym: make(map[netip.Addr]int32),
		names:   trace.NewSymbolTable(),
		resSym:  make(map[netip.Addr]int32, 8), // a handful of resolver platforms
	}
}

// addr returns a's symbol, numbering a new address next.
func (t *symbolTables) addr(a netip.Addr) int32 {
	if a.Is4() {
		b := a.As4()
		k := binary.BigEndian.Uint32(b[:])
		if s, ok := t.addr4[k]; ok {
			return s
		}
		s := t.newAddr(a)
		t.addr4[k] = s
		return s
	}
	if s, ok := t.addrSym[a]; ok {
		return s
	}
	s := t.newAddr(a)
	t.addrSym[a] = s
	return s
}

// newAddr numbers a next.
func (t *symbolTables) newAddr(a netip.Addr) int32 {
	t.addrs = append(t.addrs, a)
	t.charged += addrEntryBytes
	return int32(len(t.addrs) - 1)
}

// name returns query name q's symbol, numbering a new name next.
func (t *symbolTables) name(q string) trace.Sym {
	n := t.names.Len()
	s := t.names.Intern(q)
	if t.names.Len() > n {
		t.charged += nameEntryBytes + int64(len(q))
	}
	return s
}

// resolver returns resolver address a's symbol, numbering a new
// resolver next.
func (t *symbolTables) resolver(a netip.Addr) int32 {
	if s, ok := t.resSym[a]; ok {
		return s
	}
	s := int32(len(t.resolvers))
	t.resSym[a] = s
	t.resolvers = append(t.resolvers, resolverStat{addr: a})
	t.charged += resolverEntryBytes
	return s
}

// dns converts d's own fields — interning its client, query name and
// resolver, in that order — and folds its lookup into its resolver's
// summary. Its answers are the caller's to convert, with answer, right
// after: the record lists them from offset ans.
func (t *symbolTables) dns(d *trace.DNSRecord, ans uint32) dnsRec {
	r := dnsRec{
		queryTS: d.QueryTS, ts: d.TS, expiry: d.ExpiresAt(),
		ans: ans, nAns: uint32(len(d.Answers)),
		id: d.ID, qtype: d.QType, rcode: d.RCode, retries: d.Retries, tc: d.TC,
	}
	r.client = t.addr(d.Client)
	r.name = t.name(d.Query)
	r.res = t.resolver(d.Resolver)
	t.resolvers[r.res].add(1, d.Duration())
	return r
}

// answer converts one answer.
func (t *symbolTables) answer(a *trace.Answer) answerRec {
	return answerRec{ttl: a.TTL, addr: t.addr(a.Addr)}
}

// conn converts one connection, interning its originator, then its
// responder.
func (t *symbolTables) conn(c *trace.ConnRecord) connRec {
	r := connRec{
		ts: c.TS, dur: c.Duration, origBytes: c.OrigBytes, respBytes: c.RespBytes,
		origPort: c.OrigPort, respPort: c.RespPort, proto: c.Proto,
	}
	r.orig = t.addr(c.Orig)
	r.resp = t.addr(c.Resp)
	return r
}

// traceDNS is the inverse of dns: the trace record d and its answers
// ans were converted from, with Answers built in buf (nil when there
// are none, as the codecs yield them).
func (t *symbolTables) traceDNS(d *dnsRec, ans []answerRec, buf []trace.Answer) trace.DNSRecord {
	out := trace.DNSRecord{
		QueryTS: d.queryTS, TS: d.ts, Client: t.addrs[d.client], Resolver: t.resolvers[d.res].addr,
		ID: d.id, Query: t.names.Name(d.name), QType: d.qtype, RCode: d.rcode,
		Retries: d.retries, TC: d.tc,
	}
	if len(ans) > 0 {
		buf = buf[:0]
		for _, a := range ans {
			buf = append(buf, trace.Answer{Addr: t.addrs[a.addr], TTL: a.ttl})
		}
		out.Answers = buf
	}
	return out
}

// traceConn is the inverse of conn.
func (t *symbolTables) traceConn(c *connRec) trace.ConnRecord {
	return trace.ConnRecord{
		TS: c.ts, Duration: c.dur, Proto: c.proto,
		Orig: t.addrs[c.orig], OrigPort: c.origPort, Resp: t.addrs[c.resp], RespPort: c.respPort,
		OrigBytes: c.origBytes, RespBytes: c.respBytes,
	}
}

// recordStore is a trace in its resident form: the records in time
// order and the tables their symbols index.
type recordStore struct {
	symbolTables
	dns     []dnsRec
	answers []answerRec
	conns   []connRec
}

// answersOf is DNS record d's answers.
func (s *recordStore) answersOf(d *dnsRec) []answerRec {
	return s.answers[d.ans : d.ans+d.nAns]
}

// minParallelStore is the record count below which buildStore's merge
// overhead outweighs the parallelism; smaller inputs convert serially
// regardless of the worker setting.
const minParallelStore = 1 << 15

// buildStore converts the time-sorted ds into a store, in parallel
// chunks: each chunk converts its records in place with private
// tables, a merge proportional to the distinct values (not the
// records) numbers the chunk tables' values in chunk order — DNS
// chunks, then connection chunks — and a second parallel pass rewrites
// the chunk-local symbols. A chunk table's order is its range's
// first-appearance order, so the merged numbering is the one the serial
// conversion (a single chunk over both streams) assigns, at every
// worker count. The only error is context cancellation.
func buildStore(ctx context.Context, workers int, ds *trace.Dataset) (*recordStore, error) {
	w := parallel.Workers(workers)
	if len(ds.DNS)+len(ds.Conns) < minParallelStore {
		w = 1
	}
	return buildStoreChunked(ctx, w, ds)
}

// buildStoreChunked is buildStore on w workers, each stream cut into w
// chunks; one worker converts serially, as a single chunk over both
// streams.
func buildStoreChunked(ctx context.Context, w int, ds *trace.Dataset) (*recordStore, error) {
	type chunk struct {
		dns, conns parallel.Range
		ans        uint32 // the chunk's first answer
		t          symbolTables
		addrs      []int32 // merge: chunk-local to global symbols
		names      []trace.Sym
		res        []int32
	}
	var chunks []chunk
	if w <= 1 {
		w = 1
		chunks = []chunk{{dns: parallel.Range{Hi: len(ds.DNS)}, conns: parallel.Range{Hi: len(ds.Conns)}}}
	} else {
		for _, rg := range parallel.Chunks(len(ds.DNS), w) {
			chunks = append(chunks, chunk{dns: rg})
		}
		for _, rg := range parallel.Chunks(len(ds.Conns), w) {
			chunks = append(chunks, chunk{conns: rg})
		}
	}
	st := &recordStore{dns: make([]dnsRec, len(ds.DNS)), conns: make([]connRec, len(ds.Conns))}
	var err error
	// Label the build so profiles attribute its samples to the stage;
	// chunk workers inherit the label.
	pprof.Do(context.Background(), pprof.Labels("dnsctx_phase", "symbols"), func(context.Context) {
		// Size the answer array and place each chunk's answers.
		ansCount := make([]uint32, len(chunks))
		if err = parallel.ForEach(ctx, w, len(chunks), func(c int) error {
			for i := chunks[c].dns.Lo; i < chunks[c].dns.Hi; i++ {
				ansCount[c] += uint32(len(ds.DNS[i].Answers))
			}
			return nil
		}); err != nil {
			return
		}
		var total uint32
		for c := range chunks {
			chunks[c].ans = total
			total += ansCount[c]
		}
		st.answers = make([]answerRec, total)

		// Local pass: convert in place with chunk-local symbols.
		if err = parallel.ForEach(ctx, w, len(chunks), func(c int) error {
			ch := &chunks[c]
			ch.t = newSymbolTables()
			off := ch.ans
			for i := ch.dns.Lo; i < ch.dns.Hi; i++ {
				d := &ds.DNS[i]
				st.dns[i] = ch.t.dns(d, off)
				for k := range d.Answers {
					st.answers[off] = ch.t.answer(&d.Answers[k])
					off++
				}
			}
			for i := ch.conns.Lo; i < ch.conns.Hi; i++ {
				st.conns[i] = ch.t.conn(&ds.Conns[i])
			}
			return nil
		}); err != nil {
			return
		}
		if len(chunks) == 1 {
			st.symbolTables = chunks[0].t
			return
		}

		// Merge the chunk tables in chunk order.
		st.symbolTables = newSymbolTables()
		for c := range chunks {
			ch := &chunks[c]
			ch.addrs = make([]int32, len(ch.t.addrs))
			for j, a := range ch.t.addrs {
				ch.addrs[j] = st.addr(a)
			}
			ch.names = make([]trace.Sym, ch.t.names.Len())
			for j := range ch.names {
				ch.names[j] = st.name(ch.t.names.Name(trace.Sym(j)))
			}
			ch.res = make([]int32, len(ch.t.resolvers))
			for j := range ch.t.resolvers {
				r := &ch.t.resolvers[j]
				ch.res[j] = st.resolver(r.addr)
				st.resolvers[ch.res[j]].add(r.lookups, r.minDur)
			}
		}

		// Renumber pass. The first chunk merged into empty tables, so
		// its local symbols already are the global ones.
		err = parallel.ForEach(ctx, w, len(chunks)-1, func(c int) error {
			ch := &chunks[c+1]
			for i := ch.dns.Lo; i < ch.dns.Hi; i++ {
				d := &st.dns[i]
				d.client, d.name, d.res = ch.addrs[d.client], ch.names[d.name], ch.res[d.res]
				ans := st.answersOf(d)
				for k := range ans {
					ans[k].addr = ch.addrs[ans[k].addr]
				}
			}
			for i := ch.conns.Lo; i < ch.conns.Hi; i++ {
				cr := &st.conns[i]
				cr.orig, cr.resp = ch.addrs[cr.orig], ch.addrs[cr.resp]
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}
