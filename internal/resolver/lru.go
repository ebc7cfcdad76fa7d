package resolver

// lru is the recency list behind Cache and Stub: entries live by value
// in a slice and link to their neighbours by index, so an insert reuses
// a freed slot instead of allocating a list element and an entry. Slots
// grow as entries arrive; capacity only bounds how many stay.
type lru[V any] struct {
	capacity   int // <= 0: unbounded
	index      map[string]int32
	slots      []lruSlot[V]
	head, tail int32 // most and least recently used; nilSlot when empty
	free       int32 // first free slot, chained through next; nilSlot when none
}

type lruSlot[V any] struct {
	key        string
	val        V
	prev, next int32
}

const nilSlot = -1

func newLRU[V any](capacity int) lru[V] {
	return lru[V]{capacity: capacity, index: make(map[string]int32), head: nilSlot, tail: nilSlot, free: nilSlot}
}

func (l *lru[V]) len() int { return len(l.index) }

// get returns key's slot and entry without touching its recency, or a
// nil entry when key is absent. The entry is valid until the next put or
// remove.
func (l *lru[V]) get(key string) (int32, *V) {
	i, ok := l.index[key]
	if !ok {
		return nilSlot, nil
	}
	return i, &l.slots[i].val
}

// put stores v under key as the most recently used entry, replacing a
// present entry in place. A new key past capacity evicts the least
// recently used entry, which put reports.
func (l *lru[V]) put(key string, v V) (evicted bool) {
	if i, ok := l.index[key]; ok {
		l.slots[i].val = v
		l.touch(i)
		return false
	}
	var i int32
	if l.free != nilSlot {
		i = l.free
		l.free = l.slots[i].next
		l.slots[i] = lruSlot[V]{key: key, val: v}
	} else {
		i = int32(len(l.slots))
		l.slots = append(l.slots, lruSlot[V]{key: key, val: v})
	}
	l.index[key] = i
	l.pushFront(i)
	if l.capacity > 0 && len(l.index) > l.capacity {
		l.remove(l.tail)
		return true
	}
	return false
}

// touch makes slot i the most recently used.
func (l *lru[V]) touch(i int32) {
	if l.head == i {
		return
	}
	l.unlink(i)
	l.pushFront(i)
}

// remove drops slot i's entry and frees the slot.
func (l *lru[V]) remove(i int32) {
	l.unlink(i)
	delete(l.index, l.slots[i].key)
	l.slots[i] = lruSlot[V]{next: l.free} // release the key and value
	l.free = i
}

func (l *lru[V]) pushFront(i int32) {
	s := &l.slots[i]
	s.prev, s.next = nilSlot, l.head
	if l.head != nilSlot {
		l.slots[l.head].prev = i
	} else {
		l.tail = i
	}
	l.head = i
}

func (l *lru[V]) unlink(i int32) {
	s := &l.slots[i]
	if s.prev != nilSlot {
		l.slots[s.prev].next = s.next
	} else {
		l.head = s.next
	}
	if s.next != nilSlot {
		l.slots[s.next].prev = s.prev
	} else {
		l.tail = s.prev
	}
}
