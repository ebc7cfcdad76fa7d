// Package blocks holds a growing sequence of records in fixed-capacity
// blocks, so appending never copies a record that is already stored:
// the record store's ingest and the trace generator both retain streams
// of unknown length this way and copy them out once, at the end.
package blocks

// Blocks start at minBlock records and double up to maxBlock (about
// 1 MiB of 128-byte records), so a small stream stays small and a large
// one appends without ever copying a filled block.
const (
	minBlock = 64
	maxBlock = 8192
)

// List retains one stream's records in arrival order. The zero value is
// an empty list.
type List[T any] struct {
	blocks [][]T // only the last has unused capacity
	n      int
}

// Push appends a copy of *v and returns the capacity of the block it
// had to open, or 0.
func (b *List[T]) Push(v *T) (opened int) {
	last := len(b.blocks) - 1
	if last < 0 || len(b.blocks[last]) == cap(b.blocks[last]) {
		opened = minBlock
		if last >= 0 {
			opened = min(2*cap(b.blocks[last]), maxBlock)
		}
		b.blocks = append(b.blocks, make([]T, 0, opened))
		last++
	}
	b.blocks[last] = append(b.blocks[last], *v)
	b.n++
	return opened
}

// Len returns the number of records.
func (b *List[T]) Len() int { return b.n }

// Blocks returns the blocks in order; together they hold the records in
// arrival order.
func (b *List[T]) Blocks() [][]T { return b.blocks }

// Slack is the unused capacity of the last block, in records.
func (b *List[T]) Slack() int {
	if len(b.blocks) == 0 {
		return 0
	}
	last := b.blocks[len(b.blocks)-1]
	return cap(last) - len(last)
}

// Flatten returns the records as one exact-size slice (nil when there
// are none). The first call concatenates the blocks; the slice then
// stands as the only block, so later calls return it as is.
func (b *List[T]) Flatten() []T {
	if b.n == 0 {
		return nil
	}
	if len(b.blocks) == 1 && b.Slack() == 0 {
		return b.blocks[0]
	}
	all := make([]T, 0, b.n)
	for _, blk := range b.blocks {
		all = append(all, blk...)
	}
	b.blocks = [][]T{all}
	return all
}

// Each calls fn on every record in arrival order, stopping at the first
// error.
func (b *List[T]) Each(fn func(*T) error) error {
	for _, blk := range b.blocks {
		for i := range blk {
			if err := fn(&blk[i]); err != nil {
				return err
			}
		}
	}
	return nil
}
