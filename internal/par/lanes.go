package par

// Owned-lane scatter: the lock-free alternative to atomic scatter
// updates. A chunked producer scan routes target indices into
// per-(producer chunk, lane) buckets, where a lane owns a fixed
// contiguous index range; a second pass then lets each lane's owner
// apply every update destined for its range. No two goroutines ever
// write the same slot in either phase, so the hot loops carry no
// atomics, and because lane boundaries are a function of the index
// space only — never of the worker count — any reduction that folds
// bucket contents in (lane, producer-chunk) order is bit-identical for
// every worker count.

// LaneWidth is the number of consecutive indices owned by one lane.
// Like ChunkSize it must stay constant: lane boundaries are part of the
// deterministic work decomposition.
const LaneWidth = 1 << 14

// NumLanes returns the number of fixed-width lanes covering [0, n).
func NumLanes(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + LaneWidth - 1) / LaneWidth
}

// Router scatters int32 indices from a chunked producer scan into
// owned lanes. Buckets are retained across Begin calls, so a Router
// reused pass after pass stops allocating once warm. Each bucket sits
// on its own cache line (idBuf), so producers on neighbouring chunks
// routing into the same lane do not contend.
type Router struct {
	lanes  int
	chunks int
	bufs   [][]idBuf // [lane][producer chunk] -> routed indices
}

// NewRouter returns a router over the index space [0, n).
func NewRouter(n int) *Router {
	return &Router{lanes: NumLanes(n), bufs: make([][]idBuf, NumLanes(n))}
}

// Lanes returns the number of lanes.
func (r *Router) Lanes() int { return r.lanes }

// Begin prepares the router for a producer scan of the given chunk
// count, clearing every bucket while keeping its capacity.
func (r *Router) Begin(chunks int) {
	r.chunks = chunks
	for l := range r.bufs {
		if len(r.bufs[l]) < chunks {
			grown := make([]idBuf, chunks)
			copy(grown, r.bufs[l])
			r.bufs[l] = grown
		}
		for c := 0; c < chunks; c++ {
			r.bufs[l][c].ids = r.bufs[l][c].ids[:0]
		}
	}
}

// Route records index v under the given producer chunk. Only the
// goroutine running that chunk may call it; v's lane is v / LaneWidth.
func (r *Router) Route(chunk int, v int32) {
	b := &r.bufs[int(v)/LaneWidth][chunk]
	b.ids = append(b.ids, v)
}

// Drain runs apply once per non-empty bucket, parallel across lanes
// and in producer-chunk order within a lane. apply(lane, ids) must
// only write state owned by that lane's index range [lane*LaneWidth,
// (lane+1)*LaneWidth).
func (r *Router) Drain(pool *Pool, apply func(lane int, ids []int32)) {
	pool.ForEach(r.lanes, func(l int) {
		for c := 0; c < r.chunks; c++ {
			if ids := r.bufs[l][c].ids; len(ids) > 0 {
				apply(l, ids)
			}
		}
	})
}
