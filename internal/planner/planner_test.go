package planner

import (
	"math/rand"
	"testing"

	"rangecube/internal/cube"
	"rangecube/internal/metrics"
	"rangecube/internal/naive"
	"rangecube/internal/ndarray"
)

// testCube builds a 3-d cube (40 × 10 × 6) with deterministic data.
func testCube(t *testing.T) *cube.Cube {
	t.Helper()
	c := cube.New(
		cube.NewIntDimension("age", 1, 40),
		cube.NewIntDimension("year", 1990, 1999),
		cube.NewCategoryDimension("type", "a", "b", "c", "d", "e", "f"),
	)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		err := c.Add(int64(rng.Intn(100)),
			1+rng.Intn(40), 1990+rng.Intn(10), string(rune('a'+rng.Intn(6))))
		if err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// testLog builds a log of queries mostly on (age, year) with "all" type.
func testLog(t *testing.T, c *cube.Cube, n int) []ndarray.Region {
	t.Helper()
	rng := rand.New(rand.NewSource(6))
	var log []ndarray.Region
	for i := 0; i < n; i++ {
		lo := 1 + rng.Intn(20)
		y := 1990 + rng.Intn(5)
		r, err := c.Region(
			cube.Between("age", lo, lo+15),
			cube.Between("year", y, y+4),
			cube.All("type"),
		)
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, r)
	}
	return log
}

func TestPlannerAnswersMatchNaive(t *testing.T) {
	c := testCube(t)
	log := testLog(t, c, 50)
	p, err := New(c, log, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Choices()) == 0 {
		t.Fatal("planner chose nothing despite a uniform log")
	}
	rng := rand.New(rand.NewSource(7))
	for q := 0; q < 100; q++ {
		r := make(ndarray.Region, c.Dims())
		for j, n := range c.Shape() {
			if rng.Intn(2) == 0 {
				r[j] = ndarray.Range{Lo: 0, Hi: n - 1} // all
			} else {
				lo := rng.Intn(n)
				r[j] = ndarray.Range{Lo: lo, Hi: lo + rng.Intn(n-lo)}
			}
		}
		want := naive.SumInt64(c.Data(), r, nil)
		if got := p.Sum(r, nil); got != want {
			t.Fatalf("Sum(%v) = %d, want %d", r, got, want)
		}
	}
}

func TestPlannerBeatsScanOnLoggedShape(t *testing.T) {
	c := testCube(t)
	log := testLog(t, c, 50)
	p, err := New(c, log, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	var cp, cn metrics.Counter
	for _, r := range log {
		p.Sum(r, &cp)
		naive.SumInt64(c.Data(), r, &cn)
	}
	if cp.Total()*4 > cn.Total() {
		t.Fatalf("planner cost %d not clearly better than scan %d", cp.Total(), cn.Total())
	}
}

func TestPlannerRespectsBudget(t *testing.T) {
	c := testCube(t)
	log := testLog(t, c, 50)
	const budget = 150
	p, err := New(c, log, budget)
	if err != nil {
		t.Fatal(err)
	}
	if p.SpaceUsed() > budget {
		t.Fatalf("space %g exceeds budget %d", p.SpaceUsed(), budget)
	}
	// Answers remain correct even with a tight budget (fallback to scan or
	// coarse blocks).
	for _, r := range log[:10] {
		if p.Sum(r, nil) != naive.SumInt64(c.Data(), r, nil) {
			t.Fatal("tight-budget planner answered wrong")
		}
	}
}

func TestPlannerFallbackWithoutCover(t *testing.T) {
	c := testCube(t)
	// Log only (age) queries so only that cuboid is materialized...
	rng := rand.New(rand.NewSource(8))
	var log []ndarray.Region
	for i := 0; i < 20; i++ {
		lo := 1 + rng.Intn(20)
		r, err := c.Region(cube.Between("age", lo, lo+10))
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, r)
	}
	p, err := New(c, log, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	// ...then ask a (year, type) question: no ancestor covers it, so the
	// planner must fall back to the base cube and still be right.
	r, err := c.Region(cube.Between("year", 1991, 1995), cube.Eq("type", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Sum(r, nil), naive.SumInt64(c.Data(), r, nil); got != want {
		t.Fatalf("fallback Sum = %d, want %d", got, want)
	}
}

func TestPlannerValidation(t *testing.T) {
	c := testCube(t)
	if _, err := New(c, nil, 100); err == nil {
		t.Fatal("empty log accepted")
	}
	if _, err := New(c, []ndarray.Region{ndarray.Reg(0, 1)}, 100); err == nil {
		t.Fatal("mis-dimensioned log accepted")
	}
	log := testLog(t, c, 5)
	p, err := New(c, log, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("mis-dimensioned query did not panic")
			}
		}()
		p.Sum(ndarray.Reg(0, 1), nil)
	}()
}

func TestGrandTotalQueries(t *testing.T) {
	c := testCube(t)
	full := c.Data().Bounds()
	p, err := New(c, []ndarray.Region{full}, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Sum(full, nil), naive.SumInt64(c.Data(), full, nil); got != want {
		t.Fatalf("grand total = %d, want %d", got, want)
	}
}

// TestSplitDimensionWithoutLog: with no query log the split is the one a
// server makes, ndarray.WidestDim; a log moves it to the dimension its
// queries span least.
func TestSplitDimensionWithoutLog(t *testing.T) {
	for _, shape := range [][]int{nil, {7}, {1, 1}, {10, 8}, {8, 10}, {1, 5, 5}, {4, 9, 2, 9}} {
		if got, want := SplitDimension(shape, nil), ndarray.WidestDim(shape); got != want {
			t.Errorf("SplitDimension(%v, nil) = %d, WidestDim %d", shape, got, want)
		}
	}
	log := []ndarray.Region{{{Lo: 0, Hi: 9}, {Lo: 3, Hi: 3}}}
	if got := SplitDimension([]int{10, 8}, log); got != 1 {
		t.Errorf("SplitDimension over a log of column queries = %d, want 1", got)
	}
}
