package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"rangecube/internal/ndarray"
	"rangecube/internal/workload"
)

// stackKind is the serving stack a workload boots.
type stackKind int

const (
	standalone stackKind = iota // one server, no WAL
	slowDisk                    // one server, WAL + snapshot behind a fixed per-operation delay
	remoteTier                  // leader with a WAL scattering to two shard servers
)

// spec is one workload: the stack, the cube, and the fixed request counts of
// a round. Counts, never durations, define a round, and a round is short
// (30–80 ms) so that many of them fall between the box's bursts of
// interference (README "Noise rules"): -seconds only decides how many rounds
// are measured.
type spec struct {
	name string
	why  string

	stack     stackKind
	n         int    // cube side; the cube is n×n int64
	sumEngine string // server.Options.SumEngine
	blockSize int    // server.Options.BlockSize
	csvBoot   bool   // boot through cube.InferCSV, as cubeserver -data does
	boots     int    // timed boots behind setup_s (one untimed boot precedes them)

	clients       int // closed-loop query connections
	batch         int // queries per request: 1 is GET /query, more is POST /query/batch
	reqsPerClient int // query requests per client per round

	updReqs   int           // POST /update requests per round
	updDeltas int           // point updates per request
	updPeriod time.Duration // > 0: updates are sent open loop on this period, beside the reader

	roundSeconds float64 // what one round takes on the build box; turns -seconds into a round count

	ladderQueries int // queries replayed per rung of the traced ladder
	ladderUpdates int // update batches replayed per rung
}

// mixedPool is how many distinct queries the mixed-slowdisk reader cycles
// through; its request count per round is set by the writer's schedule.
const mixedPool = 8192

// specs are the four workloads, counts frozen after sizing on the build box
// (2 cores) so that a round takes about roundSeconds.
var specs = []spec{
	{
		name:  "point-small",
		why:   "1024x1024 in-cache cube, single GET /query of 4 lookups: time is server+http, so server-path work shows and kernel work must not",
		stack: standalone, n: 1024, sumEngine: "prefixsum", blockSize: 10, csvBoot: true, boots: 5,
		clients: 2, batch: 1, reqsPerClient: 512,
		updReqs: 24, updDeltas: 4,
		roundSeconds:  0.06,
		ladderQueries: 2000, ladderUpdates: 200,
	},
	{
		name:  "scan-large",
		why:   "4096x4096 cube out of cache, blocked engine, batches of 64 on the worker pool: time is core/ndarray/parallel scans and the batch update",
		stack: standalone, n: 4096, sumEngine: "blocked", blockSize: 32, csvBoot: false, boots: 3,
		clients: 1, batch: 64, reqsPerClient: 6,
		updReqs: 3, updDeltas: 16,
		roundSeconds:  0.15,
		ladderQueries: 512, ladderUpdates: 16,
	},
	{
		name:  "mixed-slowdisk",
		why:   "open-loop durable writes at 50/s on a 2 ms-per-operation disk beside a closed-loop reader: the write lock is held across append, fsync and compaction",
		stack: slowDisk, n: 1024, sumEngine: "prefixsum", blockSize: 10, csvBoot: true, boots: 5,
		clients: 1, batch: 1,
		updReqs: 4, updDeltas: 16, updPeriod: 20 * time.Millisecond,
		roundSeconds:  0.07,
		ladderQueries: 2000, ladderUpdates: 50,
	},
	{
		name:  "tier-remote",
		why:   "leader scattering batches of 16 to two shard servers over loopback: time is shard decompose/scatter/gather, client and JSON on the wire",
		stack: remoteTier, n: 1024, sumEngine: "prefixsum", blockSize: 10, csvBoot: true, boots: 5,
		clients: 2, batch: 16, reqsPerClient: 16,
		updReqs: 20, updDeltas: 16,
		roundSeconds:  0.09,
		ladderQueries: 2000, ladderUpdates: 200,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// quick shrinks a workload to a smoke test: a small cube and a few dozen
// requests, every code path still taken.
func (s spec) quick() spec {
	s.n = 256
	if s.stack == standalone && s.batch > 1 {
		s.n = 512
	}
	s.boots = 1
	s.reqsPerClient = max(s.reqsPerClient/4, 2)
	s.updReqs = max(s.updReqs/4, 2)
	s.ladderQueries = 128
	s.ladderUpdates = 8
	return s
}

// queriesPerRound is the fixed number of queries in one round's script.
func (s spec) queriesPerRound() int {
	if s.updPeriod > 0 {
		return mixedPool
	}
	return s.clients * s.reqsPerClient * s.batch
}

// query is one generated range query; every fourth is a range-max.
type query struct {
	max bool
	r   ndarray.Region
}

// update is one point update of a POST /update body.
type update struct {
	coords []int
	delta  int64
}

// prepBatches is how many update batches the throwaway slow-disk server logs
// before its files are copied: one folded into the snapshot, 63 left in the
// WAL for every timed boot to replay.
const prepBatches = 64

// script is everything a run sends, generated from the seed alone: the cells
// the servers boot from, the queries and update batches (a round sends the
// first queriesPerRound and updReqs of them, every round the same, so rounds
// do equal work; the traced ladder replays the first ladderQueries and
// ladderUpdates), and the final correctness sample.
type script struct {
	cells   *ndarray.Array[int64]
	queries []query
	updates [][]update
	prep    [][]update // slowDisk only: applied before the timed boots
	final   []ndarray.Region
	hash    string // sha256 of the request stream
}

func newScript(s spec, seed int64) *script {
	g := workload.New(seed)
	n := s.n
	shape := []int{n, n}
	sc := &script{cells: g.UniformCube(shape, 1000)}

	// Positions come from the seed; how much work a round does must not, or
	// two seeds disagree before the program has run (README "Noise rules").
	// Query sides cycle through the 16 pairs of {n/16, n/8, n/4, n/2}, a
	// period of 64 queries that gives every pair to sums and maxes alike.
	sides := []int{n / 16, n / 8, n / 4, n / 2}
	sc.queries = make([]query, max(s.queriesPerRound(), s.ladderQueries))
	for i := range sc.queries {
		sc.queries[i] = query{r: g.FixedSizeRegion(shape, []int{sides[i/4%4], sides[i/16%4]})}
		// 3 sums : 1 max; the slow-disk reader sends sums only, because a
		// sum's answer can be checked against any commit inside its window.
		sc.queries[i].max = i%4 == 3 && s.updPeriod == 0
	}
	// A batch's deltas fall one into each cell of a k×k grid over the cube
	// (k² = deltas per batch): a batch update touches every prefix sum
	// below and right of its deltas, and unstratified batches differed by
	// ±20% in cells touched.
	k := 1
	for (k+1)*(k+1) <= s.updDeltas {
		k++
	}
	batches := func(count int) [][]update {
		out := make([][]update, count)
		for i := range out {
			for j, u := range g.Updates(shape, s.updDeltas, 100) {
				cell := j % (k * k)
				u.Coords[0] = cell/k*(n/k) + u.Coords[0]%(n/k)
				u.Coords[1] = cell%k*(n/k) + u.Coords[1]%(n/k)
				out[i] = append(out[i], update{coords: u.Coords, delta: u.Delta})
			}
		}
		return out
	}
	sc.updates = batches(max(s.updReqs, s.ladderUpdates))
	if s.stack == slowDisk {
		sc.prep = batches(prepBatches)
	}
	sc.final = make([]ndarray.Region, 256)
	for i := range sc.final {
		sc.final[i] = g.UniformRegion(shape)
	}

	h := sha256.New()
	for _, q := range sc.queries {
		fmt.Fprintf(h, "q %t %v\n", q.max, q.r)
	}
	for _, set := range [][][]update{sc.updates, sc.prep} {
		for _, b := range set {
			for _, u := range b {
				fmt.Fprintf(h, "u %v %d;", u.coords, u.delta)
			}
			fmt.Fprintln(h)
		}
	}
	for _, r := range sc.final {
		fmt.Fprintf(h, "f %v\n", r)
	}
	sc.hash = hex.EncodeToString(h.Sum(nil))
	return sc
}
