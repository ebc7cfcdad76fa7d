package trace

// Name interning. A residential trace carries millions of DNS records
// over a few thousand distinct query names; storing each name once and
// handing out dense int32 symbols turns the analysis pipeline's
// string-keyed hot maps into slice lookups and lets the scanners yield
// records without allocating a fresh string per line.
//
// SymbolTable is append-only: symbols are assigned in first-intern
// order, so the same input stream always produces the same numbering —
// the property the analyzer's per-shard determinism relies on.

// Sym is a dense symbol for an interned string. Valid symbols are
// 0..Len()-1 in intern order.
type Sym = int32

// NoSym marks "no symbol" (e.g. a lookup that missed the table).
const NoSym Sym = -1

// maxInternedStrings bounds a table fed by hostile input (a fuzzed or
// corrupt trace with unbounded distinct names). Past the cap, Canonical
// still returns correct strings — they just stop being deduplicated.
const maxInternedStrings = 1 << 20

// SymbolTable maps strings to dense int32 symbols and back. The zero
// value is not ready; use NewSymbolTable. Not safe for concurrent use.
type SymbolTable struct {
	syms  map[string]Sym
	names []string
}

// NewSymbolTable returns an empty table.
func NewSymbolTable() *SymbolTable {
	return &SymbolTable{syms: make(map[string]Sym)}
}

// Intern returns the symbol for s, assigning the next dense symbol on
// first sight.
func (t *SymbolTable) Intern(s string) Sym {
	if sym, ok := t.syms[s]; ok {
		return sym
	}
	return t.add(s)
}

// InternBytes is Intern for a byte slice. On a hit it performs no
// allocation; only a first sight copies b into a new string.
func (t *SymbolTable) InternBytes(b []byte) Sym {
	if sym, ok := t.syms[string(b)]; ok { // no alloc: map lookup conversion
		return sym
	}
	return t.add(string(b))
}

// Canonical returns the interned string equal to b, allocating only the
// first time each distinct value is seen. It is how the scanners
// materialize query names without per-line garbage.
func (t *SymbolTable) Canonical(b []byte) string {
	if sym, ok := t.syms[string(b)]; ok {
		return t.names[sym]
	}
	if len(t.names) >= maxInternedStrings {
		return string(b)
	}
	s := string(b)
	t.add(s)
	return s
}

func (t *SymbolTable) add(s string) Sym {
	sym := Sym(len(t.names))
	t.syms[s] = sym
	t.names = append(t.names, s)
	return sym
}

// Lookup returns the symbol for s, or NoSym if s was never interned.
func (t *SymbolTable) Lookup(s string) Sym {
	if sym, ok := t.syms[s]; ok {
		return sym
	}
	return NoSym
}

// LookupBytes is Lookup for a byte slice; it never allocates.
func (t *SymbolTable) LookupBytes(b []byte) Sym {
	if sym, ok := t.syms[string(b)]; ok {
		return sym
	}
	return NoSym
}

// Name returns the string behind sym. It panics on out-of-range symbols,
// matching slice semantics.
func (t *SymbolTable) Name(sym Sym) string { return t.names[sym] }

// Len is the number of distinct interned strings.
func (t *SymbolTable) Len() int { return len(t.names) }
