package emio

// chunkBits sets the entries per chunk of a chunked array: 1 024, so a
// disk with a handful of blocks holds one small chunk of slots.
const (
	chunkBits = 10
	chunkLen  = 1 << chunkBits
)

// chunked is a growable array stored in fixed-size chunks. Growing it
// allocates chunks and never copies or frees the entries it already
// holds: a table that grows to its peak over a run leaves no garbage
// behind, where a slice regrown by append would hand the collector every
// earlier backing array, several times the final size in all, and raise
// the process's peak resident set by as much.
type chunked[T any] struct {
	chunks []*[chunkLen]T
	n      int
}

// len returns the number of entries.
func (c *chunked[T]) len() int { return c.n }

// at returns entry i, which must be below len.
func (c *chunked[T]) at(i uint64) *T { return &c.chunks[i>>chunkBits][i&(chunkLen-1)] }

// grow appends n zero entries.
func (c *chunked[T]) grow(n int) {
	c.n += n
	for len(c.chunks)*chunkLen < c.n {
		c.chunks = append(c.chunks, new([chunkLen]T))
	}
}
