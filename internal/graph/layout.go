package graph

// Hot-path memory layout support for the peel engines: Bitset,
// word-packed membership over the current vertex space. The peel inner
// loops used to gather int32 removal stamps (4 bytes per vertex, ~1MB
// on a 262k-node CSR — guaranteed cache misses on random neighbor
// ids); a Bitset packs the same answer into n/8 bytes, small enough
// that the pull recount's membership gathers stay L1/L2 resident.
// Rows, below, is the one row view the engines walk.

// Bitset is a packed bit-per-index membership set over [0, n). Index i
// lives at bit i&63 of word i>>6. Methods do no bounds management
// beyond the slice's own; size with NewBitset.
//
// Concurrent mutation is NOT safe across goroutines even for distinct
// indices — neighbors share words — so the peel engines mutate bitsets
// only from the driver goroutine and share them read-only with workers.
type Bitset []uint64

// NewBitset returns a zeroed bitset covering [0, n).
func NewBitset(n int) Bitset { return make(Bitset, (n+63)>>6) }

// Test reports whether bit i is set.
func (b Bitset) Test(i int32) bool {
	return b[uint32(i)>>6]&(1<<(uint32(i)&63)) != 0
}

// Bit returns bit i as 0 or 1 — the branch-free form the counting
// loops use.
func (b Bitset) Bit(i int32) int32 {
	return int32(b[uint32(i)>>6] >> (uint32(i) & 63) & 1)
}

// Set sets bit i.
func (b Bitset) Set(i int32) { b[uint32(i)>>6] |= 1 << (uint32(i) & 63) }

// Clear clears bit i.
func (b Bitset) Clear(i int32) { b[uint32(i)>>6] &^= 1 << (uint32(i) & 63) }

// Fill sets bits [0, n) and zeroes every remaining bit of the set.
func (b Bitset) Fill(n int) {
	w := n >> 6
	for i := 0; i < w; i++ {
		b[i] = ^uint64(0)
	}
	if r := uint(n & 63); r != 0 {
		b[w] = 1<<r - 1
		w++
	}
	for i := w; i < len(b); i++ {
		b[i] = 0
	}
}

// Zero clears every bit.
func (b Bitset) Zero() {
	for i := range b {
		b[i] = 0
	}
}

// Rows is a read-only view of one CSR row set: an undirected graph's
// adjacency or one direction of a directed graph's. It aliases the
// graph's offsets and adjacency, so the peel engines walk any of the
// three row sets with one loop and no indirect call.
type Rows struct {
	offsets []int32
	adj     []int32
}

// Row returns u's row. The slice aliases the graph and must not be
// modified.
func (r Rows) Row(u int32) []int32 { return r.adj[r.offsets[u]:r.offsets[u+1]] }

// Len returns the length of u's row.
func (r Rows) Len(u int32) int { return int(r.offsets[u+1] - r.offsets[u]) }

// Rows returns the view of g's adjacency rows.
func (g *Undirected) Rows() Rows { return Rows{g.offsets, g.adj} }

// OutRows returns the view of g's out-adjacency rows.
func (g *Directed) OutRows() Rows { return Rows{g.outOffsets, g.outAdj} }

// InRows returns the view of g's in-adjacency rows.
func (g *Directed) InRows() Rows { return Rows{g.inOffsets, g.inAdj} }
