// Package densestream finds dense subgraphs of massive graphs in the
// streaming and MapReduce models, implementing the algorithms of
//
//	Bahmani, Kumar, Vassilvitskii.
//	"Densest Subgraph in Streaming and MapReduce". PVLDB 5(5), 2012.
//
// The densest subgraph of an undirected graph G = (V, E) is the subset
// S ⊆ V maximizing ρ(S) = |E(S)|/|S|; in directed graphs, the pair S, T
// maximizing |E(S,T)|/√(|S||T|). Exact solutions need max-flow or LPs
// that do not scale; this package provides the paper's multi-pass peeling
// algorithms, which compute a (2+2ε)-approximation in O(log_{1+ε} n)
// passes over the edges while holding only O(n) state.
//
// # The Solve API
//
// Every computation goes through one entry point:
//
//	Solve(ctx context.Context, p Problem, opts ...Option) (*Solution, error)
//
// A Problem declares what to compute — an Objective with its parameters
// (Eps, K, C, Delta), one input (an in-memory graph, an edge stream, or
// a file path), and a Backend selecting the execution model:
//
//	sol, err := densestream.Solve(ctx, densestream.Problem{
//	    Objective: densestream.ObjectiveUndirected, // Algorithm 1
//	    Backend:   densestream.BackendPeel,         // in-memory engine
//	    Eps:       0.5,
//	    Graph:     g,
//	})
//
// The objectives are the paper's three algorithms plus the baselines:
// ObjectiveUndirected (Algorithm 1), ObjectiveWeighted (its weighted
// generalization), ObjectiveAtLeastK (Algorithm 2), ObjectiveDirected
// and ObjectiveDirectedSweep (Algorithm 3 and the powers-of-δ search
// over c), ObjectiveExact (Goldberg's flow characterization), and
// ObjectiveGreedy (Charikar's 2-approximation). The backends are
// BackendPeel (in-memory sharded peeling), BackendStream (semi-streaming
// with O(n) state; files on disk re-read per pass), BackendStreamSketched
// (the §5.1 Count-Sketch degree oracle), and BackendMapReduce (the §5.2
// realization on a simulated cluster). Every exact backend returns a
// bit-identical Solution for the same Problem, except for a Path input:
// the stream backends read its integer ids as given, while the
// in-memory backends renumber its labels as ReadUndirectedFile and
// ReadDirectedFile do (see Problem.Path). The envelope additionally
// carries backend-specific statistics (MapReduce round traces and
// shuffle volumes, sketch memory, the sweep's per-c points).
//
// # Cancellation and progress
//
// Solve is context-aware on every backend: cancellation or a deadline
// aborts the run within one pass, returning a *PartialError that wraps
// ctx.Err() (errors.Is sees context.Canceled or context.DeadlineExceeded)
// and carries the per-pass trace accumulated before the interruption.
// WithProgress installs a per-pass hook observing the same trace
// entries; returning false stops the solve with a *PartialError
// wrapping ErrStopped — use it for progress bars, time budgets, or
// early stopping once the density is good enough.
//
// # Parallelism model
//
// The peeling hot paths run on a chunked worker pool (internal/par):
// every per-pass scan — candidate selection, degree recounts, and, for
// shardable edge streams, the edge scan itself — is sharded over
// fixed-size chunks with per-chunk batch buffers that merge in index
// order, and degree updates run lock- and atomic-free: an integer push
// is one sequential scatter along the removed batch's rows, and a pull
// is a chunk-parallel recount in which each survivor writes only its
// own degree (weighted degrees always pull, since float accumulation
// is order sensitive). Graph construction shares the engine:
// Builder.Freeze counts, scatters and sorts adjacency rows
// concurrently, with each row's entries kept in insertion order until
// the row is sorted.
// Because the decomposition depends only on the input size, never on
// scheduling, every worker count produces bit-identical results. WithWorkers(n) sets the worker count (default:
// runtime.GOMAXPROCS(0)); the densest CLI exposes it as -workers.
//
// BackendStream, BackendStreamSketched and BackendMapReduce run one
// pass policy over different degree oracles. Each pass measures the
// degrees of the live set, drops the nodes at or below the threshold
// (Algorithm 2: the ε/(1+ε) quota of them; Algorithm 3: one side), and
// keeps the densest snapshot. The streaming oracle is one sharded scan
// of the edge stream into per-shard counter lanes (a stream that cannot
// shard is scanned as one shard); the MapReduce oracle is one degree
// job plus the filter jobs that delete the removed nodes' edges. Their
// sets and traces therefore agree, and each trace is BackendPeel's seen
// from the start of every pass. BackendPeel keeps degrees current by
// decrements instead of measuring them, so it runs its own loops.
//
// # Memory layout and the peel hot path
//
// One peeling pass is, by the paper's design, a linear scan — so the
// in-memory engines are laid out to run it at memory bandwidth. Every
// integer engine (Algorithms 1–3) peels one state: a side is a
// frontier, alive bits, removal passes and degrees over one CSR row
// set. Algorithms 1 and 2 peel one side over the graph's rows, and
// Algorithm 3 peels S along the out-rows and T along the in-rows, so
// one scan, one push and one pull serve all three. Three techniques
// carry the hot loop, and every worker count (and the sequential run)
// returns bit-identical results:
//
//   - Live-vertex frontier, swept in batches. The candidate scan walks
//     a compacted, ascending slice of the surviving vertex ids instead
//     of all n alive flags, so a pass costs O(live): once 99% of the
//     graph has peeled away, the scan touches 1% of the memory. The
//     walk itself is a batched sweep (par.Sweeper): fixed-size blocks
//     are filtered in place and the kept runs squashed together in
//     block order, one primitive shared by every peeler.
//   - Push or pull by one measured cost. A pass either pushes
//     decrements along the removed batch's rows into the other side's
//     degrees, in one sequential loop, or pulls: each survivor recounts
//     its live neighbors with a branch-free bit gather, in parallel
//     chunks — the direction-optimizing trade of Beamer-style BFS
//     search. The push needs no batch bitset to count the edges it
//     removes: that count follows from the batch's degrees summed
//     before and after it. On one core a pushed entry measured about
//     three to four times the cost of a pulled one, and the pull runs
//     on as many cores as the pool has workers (up to GOMAXPROCS), so
//     the undirected engines pull exactly when the survivors' rows hold
//     fewer than four times the pull's width times the batch's entries
//     (the directed peeler compares the two volumes directly). The
//     integer engines never rebuild their CSR: they finish in
//     O(log_{1+ε} n) passes, on which a rebuild did not measurably pay
//     for itself, and every vertex keeps its input id for the whole
//     run.
//   - A weighted-only rebuild. The weighted peeler's decrement is
//     always a pull over the survivors' whole rows, so dead entries
//     cost it on every later pass. Once the live set falls below a
//     quarter of the CSR's nodes and at least half of its rows'
//     entries are dead, it rebuilds the surviving subgraph into a
//     dense CSR with an order-preserving relabel, and maps the new ids
//     back to the input's through one id map composed in place.
//
// Determinism survives all three. The push/pull direction may differ
// by worker count, but the Result never does: both directions leave
// every survivor's integer degree and the edge count the same. Every
// other choice is arithmetic on deterministic integers, and the one
// float-sensitive path — the weighted peeler's decrement, which always
// pulls — keeps its subtractions grouped by
// fixed chunks of the original vertex space, in ascending original
// order, regardless of worker count or compaction epoch (the weighted
// rebuild preserves id order for exactly this reason). The layout
// parity sweep in internal/core asserts reflect.DeepEqual against the
// pre-layout reference engines across graphs, objectives, ε values,
// and workers 1–8.
//
// Every in-memory peel engine, the directed one and each run of a
// directed sweep included, recycles its peel scratch — frontiers,
// bitsets, degree arrays, batch buffers and the weighted compaction
// scratches — through one sync.Pool, so a warm solve allocates little
// beyond its Solution. The GC drops idle scratch, so a long-running
// process does not keep its largest graph's buffers forever.
//
// # The out-of-core model
//
// Edge sets too big for one machine's memory — the paper's motivating
// setting — run through internal/edgeio, one sharded EdgeSource layer
// with three implementations: memory-resident slices, byte-range
// shards of edge-list files with line-boundary resync (CRLF and
// missing-trailing-newline safe), and binary columnar files (the same
// block codec the MapReduce engine uses for its spill runs). Every
// Problem with a Path input rides on it:
//
//   - BackendStream re-reads the file once per pass holding O(n)
//     state, and WithWorkers(n) splits each pass's scan into n file
//     shards — private cursors over one shared descriptor — so `-algo
//     stream` on disk inputs parallelizes exactly like in-memory
//     streams, with bit-identical results at every worker count
//     (weighted scans use a float-lane striped counter whose lane
//     decomposition is fixed by the input shape, never the worker
//     count). A pass over a binary file reads it a decoded block at a
//     time and skips every block an earlier pass of the same solve
//     found without a live edge: live sets only shrink, so such a
//     block stays dead, and the skip cannot change the answer. For the
//     same reason, once one pass's live edges fit one counter lane (n
//     edges, n/2 weighted; BackendStreamSketched holds none), the scan
//     holds them in memory, in stream order, and the passes after it
//     read no input: they scan that residual, so passes over the input
//     number at most the algorithm's Passes, and a file truncated after
//     the held pass no longer fails the solve. The scan paths are
//     allocation-flat in the worker count: the scanner's counter and
//     residual, and read buffers, pool across solves, worker crews
//     park between passes, and a pass in steady state allocates
//     nothing.
//   - BackendPeel and BackendMapReduce load the file through the same
//     sharded scan (ReadUndirectedFile/ReadDirectedFile): workers
//     tokenize byte ranges of a text file, or decode block ranges of a
//     binary one, into label keys without allocating per line; one
//     fold then interns the keys in file order (canonical decimal
//     labels as integers, through a dense table when the ids are
//     dense) straight into the builder's edge slice, and the built
//     graph is bit-identical to a sequential parse.
//   - BackendMapReduce additionally bounds its resident footprint:
//     with MRConfig.SpillBytes > 0 (CLI: -spill-mb), dataset
//     partitions past the budget spill to per-partition binary files
//     and are read back transparently, so the peeling rounds cover
//     out-of-core edge sets with results bit-identical to a fully
//     resident run. MRConfig.SpillDir places the files; the drivers
//     remove them when the run ends.
//
// Solution.Stats reports the I/O a solve performed: BytesScanned
// (disk reads by the file-backed streams, discovery scan included;
// the bytes of the text lines and binary blocks actually read, so a
// skipped block, and a pass served from memory, counts nothing) and
// BytesSpilled (MapReduce spill writes under the budget).
//
// # Binary columnar edge storage
//
// Disk inputs come in two interchangeable formats, told apart by the
// first four bytes of the file. Text is the SNAP-style edge list:
// one "u<tab>v[<tab>w]" pair per line, '#' comments, lenient
// whitespace — the format every public graph dataset ships in.
// Binary is this package's columnar format (conventionally *.bsg,
// written by WriteUndirectedBinary/WriteDirectedBinary or
// `genGraph -format=binary` / `genGraph -convert`):
//
//	header:   "BSG1" magic, version u16, flags u16 (bit0 = weighted),
//	          node count u64 — 16 bytes, little-endian throughout
//	blocks:   edge count u32, payload length u32, encoding u8, payload
//	          encoding 0: fixed-width columns — all srcs as u32, then
//	                      all dsts as u32, then (if weighted) all
//	                      weights as f64
//	          encoding 1: delta-varint — first src absolute, the rest
//	                      as uvarint deltas (chosen per block only when
//	                      srcs are non-decreasing, e.g. writer output in
//	                      CSR order); dsts as absolute uvarints;
//	                      weights stay fixed f64
//	index:    one {file offset u64, edge count u32} entry per block
//	trailer:  index offset u64, total edges u64, block count u32,
//	          "BSG1-END" — 28 bytes, so readers locate the index from
//	          the end of the file
//
// The per-block index is what makes the format shardable: Shards(k)
// splits the blocks into k contiguous record ranges, each reader
// seeking straight to its first block — no resync scan, no parsing.
// Scans read each block whole with one pread into a reused buffer and
// decode it into reused Edge buffers, so the steady-state read path
// allocates nothing and a pass runs at disk (or page-cache) bandwidth,
// the same way on every platform. A file truncated under a scan fails
// the scan with an error naming the block, never a crash.
// The varint decoder checks a block's one-byte src deltas with one OR
// and reads short dsts from one word load, and decodes anything else
// value by value. Readers validate magic, version, flags, the
// trailer, and every block bound before touching payload bytes, an
// index entry must claim no more edges than its block's bytes can
// hold, and corruption errors carry the byte offset of the damage.
//
// When to convert: text is the interchange format — keep it for
// datasets you edit, grep, or ship elsewhere. Convert to binary
// (`genGraph -convert in.txt -o out.bsg`, byte-for-byte reversible)
// when a file is scanned more than once — a multi-pass stream solve
// re-reads its input O(log n) times, and the binary scan skips the
// integer parsing and line splitting that dominate the text path
// while typically also shrinking the file. All consumers accept
// either format from the same Problem.Path with no option changes,
// and return bit-identical Solutions for a text file and its
// conversion.
//
// # MapReduce runtime
//
// BackendMapReduce runs on a simulated cluster built on the same
// internal/par engine, configured with WithMapReduceConfig (MRConfig):
// Mappers and Reducers are worker slots per machine, Machines the
// simulated machine count, Combine enables per-shard combiners in the
// degree jobs; zero fields take their defaults and negative fields are
// rejected (MRConfig.Normalize). A driver run shards the edge list onto
// the cluster once; each peeling pass is a Round of jobs (one degree
// count, the §5.2 marker-join filters) over the resident partitioned
// dataset — only the removal markers enter a round from the
// coordinator. Jobs read fixed input shards, shuffle through a fixed
// number of hash partitions merged in shard order, and fold each
// reducer partition's keys in sorted order, so every cluster shape
// returns a bit-identical result. Each round reports wall clock,
// shuffle records and bytes, and the per-machine shuffle attribution
// (Solution.MRRounds) — the series behind the paper's Figure 6.7.
//
// # Fault tolerance and elasticity
//
// At the cluster scale the paper targets, task loss and machine churn
// are the normal case, so the simulated cluster carries the classic
// MapReduce recovery model — and, because every task is a pure function
// of its durable input split, every recovery path below returns results
// bit-identical to an undisturbed run at any cluster shape.
//
// MRConfig.Failures installs an MRFailurePlan, a deterministic failure
// schedule: explicit MRFault entries drop a chosen map shard, reduce
// partition, or whole machine at a chosen round (a machine loss takes
// every map task scheduled on it and every shuffle partition it owns),
// and Seed with MapRate/ReduceRate adds a reproducible pseudo-random
// schedule derived from (seed, round, job, task) alone — never from
// timing or worker identity, so the same plan always kills the same
// tasks. A lost map task re-executes from its input split; a lost
// reduce partition recomputes from the surviving shard buckets. With
// Speculate the re-run races a speculative backup against the delayed
// original, first result wins. The MRFirstSpilledShard map target
// drops, in every job, the map task covering the input's first spilled
// partition. All recovery work is counted in Solution.MRFaults (task
// reruns, speculative wins/losses, machine failures) and aggregated by
// densestd under the /metrics mapReduce block.
//
// MRConfig.CheckpointEvery/CheckpointDir turn on round-level
// checkpoint/restart: every N completed rounds the driver persists the
// surviving edge dataset (one binary spill file per partition, the
// edgeio block format) plus a small JSON manifest of the coordinator
// state — removal schedule, best pass and density, round trace, round
// index, cluster shape — committed atomically by rename. A driver
// started with the same CheckpointDir and job parameters resumes from
// the manifest's round instead of from scratch (mismatched parameters
// are rejected), replays the remaining rounds, and returns a Solution
// bit-identical to an uninterrupted run — including after a mid-job
// Machines change, the simulated autoscaling path, since the work
// decomposition is a function of the data alone. Checkpoints written,
// their bytes, and the resumed-from round land in the same counters;
// MRFailurePlan.CrashAfterRound simulates the coordinator crash
// (ErrSimulatedCrash) the restart path recovers from. A completed run
// clears its checkpoint directory.
//
// # Serving
//
// The Problem/Solution pair is also the package's wire format: both
// marshal to stable JSON (enums as names — "objective": "Undirected",
// "backend": "MapReduce" — parameters under fixed lowercase keys, the
// in-process inputs excluded), Problem.Validate reports field-named
// errors before any work starts, and cmd/densestd serves the whole
// Solve surface over HTTP. The daemon keeps a named graph registry
// (register once under PUT /graphs/{name}, solve many), runs each
// request through a bounded worker-pool queue with per-request
// deadlines (an expired deadline returns the PartialError trace in the
// error body), exposes asynchronous jobs with per-pass progress and
// cancellation, caches marshalled Solutions in an LRU keyed by graph
// content fingerprint and canonicalized Problem (a cache hit returns
// the stored bytes verbatim, so it is bit-identical to the solve that
// populated it), and accepts streaming edge appends that invalidate
// exactly the results they stale. An HTTP solve returns byte-for-byte
// the JSON of the in-process Solve on the same graph — `densestd
// -smoke` asserts that parity for every objective and backend. See
// cmd/densestd/README.md for the endpoint reference.
//
// # Dynamic graphs and sliding windows
//
// NewMaintainer owns a mutable edge multiset plus the current
// approximate solution: Insert and Delete feed updates, Current returns
// the maintained Solution, and Flush forces an epoch boundary. The
// maintainer re-peels lazily — it keeps the last epoch's solution and a
// compacted-CSR checkpoint, tracks the maintained set's density exactly
// as edges churn, and only re-peels (resuming from the checkpoint via a
// delta merge, not a full rebuild) when the drift bound can no longer
// certify a (2+2·DriftEps) approximation: inserting A distinct edges
// raises the optimum by at most sqrt(A/2), and deletions only lower it.
// Between epochs Current is O(1); at every epoch boundary the solution
// is bit-identical to the from-scratch Solve on the live edge set.
// MaintainerConfig.Window turns on sliding-window expiry: InsertAt
// stamps edges with event times, Advance moves the watermark, and edges
// older than the window expire in amortized O(1) bucket batches (late
// arrivals behind the already-expired horizon are dropped).
//
// The same machinery has a Problem form — ObjectiveSlidingWindow
// replays a timestamped stream (WeightedEdges or a weighted Path file;
// the weight column is the positive integer timestamp) through a
// windowed maintainer and returns the final epoch's Solution with the
// maintainer counters in Solution.Dynamic — and a serving form: a graph
// registered with dynamic=true in densestd feeds appends (and
// ?op=delete removals) to a maintainer in place, serves matching solves
// from the maintained solution instead of recomputing cold, and reports
// the maintainer gauges under /metrics. cmd/genGraph -timestamps
// generates timestamped inputs in both text and binary form.
//
// Graphs are built with NewBuilder/NewDirectedBuilder or parsed from
// SNAP-style edge lists with ReadUndirected/ReadDirected (or their
// sharded file variants ReadUndirectedFile/ReadDirectedFile). All
// algorithms are deterministic given their inputs (and seeds, where
// applicable) at every worker count.
//
// Development workflow: the Makefile mirrors CI — `make ci` runs build,
// vet, the gofmt gate, the API-surface gate (scripts/api_surface.sh
// diffs `go doc -all .` against the committed API.txt), tests, the
// -race suite over the parallel engine, and the bench smoke that emits
// BENCH_ci.json (benchmark → ns/op).
package densestream
