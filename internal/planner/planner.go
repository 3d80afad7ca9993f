// Package planner ties §9 together into a usable physical-design pipeline:
// given a data cube, a log of past range queries and an auxiliary-space
// budget, it assigns queries to cuboids, runs the greedy benefit/space
// selection (Figure 13), materializes a blocked prefix sum for every
// chosen cuboid, and then routes each incoming query to the cheapest
// structure that can answer it — falling back to a scan of the base cube
// when none can.
package planner

import (
	"fmt"
	"math"
	"math/bits"

	"rangecube/internal/core/blocked"
	"rangecube/internal/core/chooser"
	"rangecube/internal/cube"
	"rangecube/internal/metrics"
	"rangecube/internal/naive"
	"rangecube/internal/ndarray"
)

// Planner holds the materialized structures for one cube.
type Planner struct {
	base    *cube.Cube
	entries []entry
	choices []chooser.Choice
	space   float64
}

// entry is one materialized cuboid prefix sum.
type entry struct {
	mask uint64
	dims []int // base-cube dimension positions, ascending
	bl   *blocked.IntArray
}

// New profiles the query log, selects cuboids and block sizes under the
// space budget (in cells), and materializes them. The log regions must be
// in the base cube's rank domain (as returned by Cube.Region).
func New(c *cube.Cube, log []ndarray.Region, spaceLimit float64) (*Planner, error) {
	if len(log) == 0 {
		return nil, fmt.Errorf("planner: empty query log")
	}
	d := c.Dims()
	if d > 62 {
		return nil, fmt.Errorf("planner: %d dimensions exceed the bitmask width", d)
	}
	shape := c.Shape()
	// Assign each query to the cuboid of its non-"all" dimensions and
	// accumulate Table 1 statistics per cuboid.
	type agg struct {
		nq   float64
		v, s float64
	}
	aggs := map[uint64]*agg{}
	for i, q := range log {
		if len(q) != d {
			return nil, fmt.Errorf("planner: log query %d has dimension %d, want %d", i, len(q), d)
		}
		mask, v, s := classify(q, shape)
		if mask == 0 {
			continue // a grand-total query: any structure answers it in O(1)
		}
		a := aggs[mask]
		if a == nil {
			a = &agg{}
			aggs[mask] = a
		}
		a.nq++
		a.v += v
		a.s += s
	}
	lat := &chooser.Lattice{Shape: shape, SpaceLimit: spaceLimit}
	for mask, a := range aggs {
		lat.Stats = append(lat.Stats, chooser.CuboidStats{
			Dims: mask, NQ: a.nq, V: a.v / a.nq, S: a.s / a.nq,
		})
	}
	p := &Planner{base: c}
	if len(lat.Stats) == 0 {
		return p, nil
	}
	p.choices = lat.Greedy()
	p.space = lat.TotalSpace(p.choices)
	// Materialize each chosen cuboid with its block size.
	for _, ch := range p.choices {
		dims := maskDims(ch.Dims, d)
		names := make([]string, len(dims))
		for i, j := range dims {
			names[i] = c.Dimension(j).Name()
		}
		sub, err := c.Cuboid(names...)
		if err != nil {
			return nil, err
		}
		p.entries = append(p.entries, entry{
			mask: ch.Dims,
			dims: dims,
			bl:   blocked.BuildInt(sub.Data(), ch.BlockSize),
		})
	}
	return p, nil
}

// SplitDimension chooses the dimension a sharded serving tier should slab
// along, with the same workload lens §9 uses for block sizes: a query that
// spans a fraction f of the split dimension touches about f·N of N shards,
// so the scatter cost of a workload is minimized by splitting where its
// queries are narrowest relative to the extent. Given a query log it
// returns the dimension of least mean fractional extent; without one it
// falls back to ndarray.WidestDim, the rule a server applies.
// Ties break toward the lowest dimension index, so the choice is
// deterministic. An empty shape returns 0.
func SplitDimension(shape []int, log []ndarray.Region) int {
	if len(log) == 0 {
		return ndarray.WidestDim(shape)
	}
	best, bestScore := 0, math.Inf(1)
	for j, e := range shape {
		if e <= 1 {
			continue // a 1-wide dimension cannot host more than one slab
		}
		// A dimension no query constrains scores as the widest would:
		// fractional-extent scores are in (0, 1], so 1/e keeps the two
		// regimes on one scale.
		score, n := 0.0, 0
		for _, q := range log {
			if j >= len(q) || q.Empty() {
				continue
			}
			score += float64(q[j].Len()) / float64(e)
			n++
		}
		if n == 0 {
			score = 1 / float64(e)
		} else {
			score /= float64(n)
		}
		if score < bestScore {
			best, bestScore = j, score
		}
	}
	return best
}

// classify returns the cuboid mask (non-"all" dimensions) and the Table 1
// statistics of the projected query.
func classify(q ndarray.Region, shape []int) (mask uint64, v, s float64) {
	v = 1
	var sides []float64
	for j, rng := range q {
		if rng.Lo == 0 && rng.Hi == shape[j]-1 {
			continue // "all"
		}
		mask |= 1 << uint(j)
		side := float64(rng.Len())
		v *= side
		sides = append(sides, side)
	}
	for _, side := range sides {
		s += 2 * v / side
	}
	return mask, v, s
}

func maskDims(mask uint64, d int) []int {
	dims := make([]int, 0, bits.OnesCount64(mask))
	for j := 0; j < d; j++ {
		if mask&(1<<uint(j)) != 0 {
			dims = append(dims, j)
		}
	}
	return dims
}

// Choices returns the selected (cuboid, block size) pairs; SpaceUsed the
// total auxiliary cells they occupy.
func (p *Planner) Choices() []chooser.Choice { return p.choices }
func (p *Planner) SpaceUsed() float64        { return p.space }

// Sum answers a range-sum query on the base cube's rank domain, routing it
// to the cheapest materialized cuboid whose dimensions cover the query's
// active dimensions; without one it scans the base cube.
func (p *Planner) Sum(q ndarray.Region, c *metrics.Counter) int64 {
	d := p.base.Dims()
	if len(q) != d {
		panic(fmt.Sprintf("planner: query of dimension %d against cube of dimension %d", len(q), d))
	}
	mask, _, s := classify(q, p.base.Shape())
	bestIdx := -1
	bestCost := math.Inf(1)
	for i, e := range p.entries {
		if e.mask&mask != mask {
			continue
		}
		cost := math.Exp2(float64(bits.OnesCount64(mask)))
		if b := e.bl.BlockSize(); b > 1 {
			cost += s * float64(b) / 4
		}
		if cost < bestCost {
			bestIdx, bestCost = i, cost
		}
	}
	if bestIdx < 0 {
		return naive.SumInt64(p.base.Data(), q, c)
	}
	e := p.entries[bestIdx]
	proj := make(ndarray.Region, len(e.dims))
	for i, j := range e.dims {
		proj[i] = q[j]
	}
	return e.bl.Sum(proj, c)
}
