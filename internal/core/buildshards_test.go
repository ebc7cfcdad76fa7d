package core

import (
	"context"
	"net/netip"
	"os"
	"slices"
	"testing"
)

// referenceShards groups st's records by client with maps, as
// buildShards' contract states it: connection originators in the order
// of their first connection, then clients that only issued lookups in
// the order of their first lookup, each client's record positions
// ascending.
func referenceShards(st *recordStore) (clients []int32, conns, dns map[int32][]int32) {
	conns, dns = make(map[int32][]int32), make(map[int32][]int32)
	for i := range st.conns {
		c := st.conns[i].orig
		if _, ok := conns[c]; !ok {
			clients = append(clients, c)
		}
		conns[c] = append(conns[c], int32(i))
	}
	for i := range st.dns {
		c := st.dns[i].client
		if _, seen := dns[c]; !seen {
			if _, orig := conns[c]; !orig {
				clients = append(clients, c)
			}
		}
		dns[c] = append(dns[c], int32(i))
	}
	return clients, conns, dns
}

// checkShards fails t unless buildShards(st) is the reference grouping:
// the same clients in the same order, each with the reference's
// positions, in windows that tile both position lists in shard order.
func checkShards(t *testing.T, name string, st *recordStore) {
	t.Helper()
	set := buildShards(st)
	clients, conns, dns := referenceShards(st)
	if len(set.list) != len(clients) {
		t.Fatalf("%s: %d shards, reference %d", name, len(set.list), len(clients))
	}
	if len(set.conns) != len(st.conns) || len(set.dns) != len(st.dns) {
		t.Fatalf("%s: position lists hold %d conns and %d lookups, store %d and %d",
			name, len(set.conns), len(set.dns), len(st.conns), len(st.dns))
	}
	var c0, d0 int32
	for s, c := range clients {
		sh := set.list[s]
		if sh.client != c {
			t.Fatalf("%s: shard %d is client %d, reference %d", name, s, sh.client, c)
		}
		if sh.conn0 != c0 || sh.dns0 != d0 {
			t.Fatalf("%s: shard %d starts at (%d, %d), previous ends at (%d, %d)",
				name, s, sh.conn0, sh.dns0, c0, d0)
		}
		c0, d0 = sh.conn1, sh.dns1
		gotConns, gotDNS := set.records(s)
		if !slices.Equal(gotConns, conns[c]) || !slices.Equal(gotDNS, dns[c]) {
			t.Fatalf("%s: shard %d (client %d) holds conns %v and lookups %v, reference %v and %v",
				name, s, c, gotConns, gotDNS, conns[c], dns[c])
		}
	}
}

// TestBuildShardsMatchesReference pins buildShards' grouping, whose
// order seeds the per-client RNG streams, against a map-based reference
// over a generated trace's store, a hand-built store covering every
// kind of first appearance, an empty store, and a store reloaded from
// spill frames.
func TestBuildShardsMatchesReference(t *testing.T) {
	ds := determinismTrace(t)
	ds.SortByTime()
	st, err := buildStoreChunked(context.Background(), 1, ds)
	if err != nil {
		t.Fatal(err)
	}
	checkShards(t, "determinismTrace", st)

	// Hand-built: C has only connections, D only lookups, B looks up
	// before its first connection, A and B interleave their first
	// appearances, and R is a destination that is no client.
	hand := &recordStore{symbolTables: newSymbolTables()}
	sym := func(s string) int32 { return hand.addr(netip.MustParseAddr(s)) }
	r, a, b, c, d := sym("192.0.2.80"), sym("10.0.0.1"), sym("10.0.0.2"), sym("10.0.0.3"), sym("10.0.0.4")
	for _, lookup := range []int32{b, d, a, b, d, a} {
		hand.dns = append(hand.dns, dnsRec{client: lookup})
	}
	for _, orig := range []int32{a, c, b, a, c, b, b} {
		hand.conns = append(hand.conns, connRec{orig: orig, resp: r})
	}
	checkShards(t, "hand-built", hand)
	set := buildShards(hand)
	order := make([]int32, len(set.list))
	for s := range set.list {
		order[s] = set.list[s].client
	}
	if want := []int32{a, c, b, d}; !slices.Equal(order, want) {
		t.Fatalf("hand-built: clients %v, want %v", order, want)
	}

	checkShards(t, "empty", &recordStore{symbolTables: newSymbolTables()})

	// A spill partition holding the whole trace, reloaded as the
	// out-of-core classifier loads one.
	dir := t.TempDir()
	dnsBytes, nAns := encodeDNS(ds.DNS)
	if err := os.WriteFile(spillPath(dir, "dns", 0), dnsBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spillPath(dir, "conn", 0), encodeConns(ds.Conns), 0o644); err != nil {
		t.Fatal(err)
	}
	ld := partitionLoader{dir: dir, resolvers: resolversOf(ds.DNS)}
	part, err := ld.load(0, spillCount{frames: len(ds.DNS), answers: nAns}, spillCount{frames: len(ds.Conns)})
	if err != nil {
		t.Fatal(err)
	}
	checkShards(t, "spill partition", part.st)
}
