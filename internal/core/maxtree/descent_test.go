package maxtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
)

// refMaxIndex is Max_index as it was first written, with a coordinate slice
// per node, a region per child and closures over the child grid and the
// lines: the reference the pooled descent must match in its answer, its
// counted accesses and which of several equal extremes it returns.
func refMaxIndex(t *Tree[int64], r ndarray.Region, c *metrics.Counter) (int, int64, bool) {
	if r.Empty() {
		return 0, 0, false
	}
	lvl, side := 0, 1
	for {
		same := true
		for j := range r {
			if r[j].Lo/side != r[j].Hi/side {
				same = false
			}
		}
		if same {
			break
		}
		lvl++
		side *= t.b
	}
	corner := 0
	for j := range r {
		corner += r[j].Lo * t.a.Strides()[j]
	}
	if lvl == 0 {
		c.AddCells(1)
		return corner, t.a.Data()[corner], true
	}
	node := make([]int, len(r))
	for j := range r {
		node[j] = r[j].Lo / side
	}
	lv := t.levels[lvl-1]
	noff := lv.vals.Offset(node...)
	c.AddAux(1)
	if r.Contains(t.a.Coords(lv.offs[noff], nil)) {
		return lv.offs[noff], lv.vals.Data()[noff], true
	}
	c.AddCells(1)
	off, val := refDescend(t, lvl, node, r, corner, t.a.Data()[corner], c)
	return off, val, true
}

func refDescend(t *Tree[int64], levelIdx int, node []int, r ndarray.Region, curOff int, curVal int64, c *metrics.Counter) (int, int64) {
	childLevel := levelIdx - 1
	childShape := t.a.Shape()
	if childLevel > 0 {
		childShape = t.levels[childLevel-1].vals.Shape()
	}
	children := make(ndarray.Region, len(node))
	for j, k := range node {
		children[j] = ndarray.Range{Lo: k * t.b, Hi: min(k*t.b+t.b-1, childShape[j]-1)}
	}
	if childLevel == 0 {
		children.Intersect(r).ForEach(func(k []int) {
			off := t.a.Offset(k...)
			if v := t.a.Data()[off]; t.better(v, curVal) {
				curOff, curVal = off, v
			}
			c.AddCells(1)
			c.AddSteps(1)
		})
		return curOff, curVal
	}
	lv := t.levels[childLevel-1]
	side := pow(t.b, childLevel)
	type bout struct {
		k     []int
		inter ndarray.Region
	}
	var bouts []bout
	children.ForEach(func(k []int) {
		cov := make(ndarray.Region, len(k))
		internal, external := true, false
		for j, kj := range k {
			cov[j] = ndarray.Range{Lo: kj * side, Hi: min(kj*side+side-1, t.a.Shape()[j]-1)}
			internal = internal && r[j].Lo <= cov[j].Lo && cov[j].Hi <= r[j].Hi
			external = external || cov[j].Hi < r[j].Lo || cov[j].Lo > r[j].Hi
		}
		if external {
			return
		}
		noff := lv.vals.Offset(k...)
		c.AddAux(1)
		if internal || r.Contains(t.a.Coords(lv.offs[noff], nil)) {
			c.AddSteps(1)
			if t.better(lv.vals.Data()[noff], curVal) {
				curOff, curVal = lv.offs[noff], lv.vals.Data()[noff]
			}
			return
		}
		bouts = append(bouts, bout{append([]int(nil), k...), cov.Intersect(r)})
	})
	for _, bo := range bouts {
		c.AddSteps(1)
		if t.better(lv.vals.At(bo.k...), curVal) {
			curOff, curVal = refDescend(t, childLevel, bo.k, bo.inter, curOff, curVal, c)
		}
	}
	return curOff, curVal
}

// Property: the pooled descent answers every query as the reference does —
// the same cell among equal extremes, the same counted cells, aux reads and
// steps — for max and min trees over tie-heavy cubes of 1 to 3 dimensions
// with ragged extents and fanouts 2 to 5, before and after a §7 batch.
func TestDescentMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomCube(rng, 3, 23)
		a.Fill(func([]int) int64 { return int64(rng.Intn(5)) })
		build := Build[int64]
		if seed%2 == 0 {
			build = BuildMin[int64]
		}
		tr := build(a, 2+rng.Intn(4))
		for round := 0; round < 2; round++ {
			for q := 0; q < 40; q++ {
				r := make(ndarray.Region, a.Dims())
				for j, n := range a.Shape() {
					lo := rng.Intn(n)
					r[j] = ndarray.Range{Lo: lo, Hi: lo + rng.Intn(n-lo)}
				}
				var got, want metrics.Counter
				off, v, ok := tr.MaxIndex(r, &got)
				wantOff, wantV, wantOK := refMaxIndex(tr, r, &want)
				if off != wantOff || v != wantV || ok != wantOK || got != want {
					t.Logf("shape %v b %d r %v: (%d, %d, %v) cost %v, reference (%d, %d, %v) cost %v",
						a.Shape(), tr.b, r, off, v, ok, &got, wantOff, wantV, wantOK, &want)
					return false
				}
			}
			tr.BatchUpdate(randomUpdatesFor(rng, a.Shape(), 1+rng.Intn(12), 5), nil)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: BatchUpdate's sorted dedup leaves the tree, its stats and its
// counted accesses as the map-deduped reference (repairAsCaller, which also
// writes the cells first) does, over batches that name most cells several
// times with tie-heavy values.
func TestBatchUpdateDedupMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomCube(rng, 3, 9)
		a.Fill(func([]int) int64 { return int64(rng.Intn(4)) })
		b := 2 + rng.Intn(3)
		build := Build[int64]
		if seed%2 == 0 {
			build = BuildMin[int64]
		}
		got, want := build(a, b), build(a.Clone(), b)
		for round := 0; round < 4; round++ {
			ups := randomUpdatesFor(rng, a.Shape(), 1+rng.Intn(3*a.Size()), 4)
			if got.BatchUpdate(ups, nil) != repairAsCaller(want, ups) || !sameTree(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
