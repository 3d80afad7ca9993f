package cube

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"rangecube/internal/naive"
	"rangecube/internal/ndarray"
)

// insuranceCube builds a miniature of the paper's §1 insurance example:
// dimensions age, year, state, type with SUM(revenue) as the measure.
func insuranceCube(t *testing.T) *Cube {
	t.Helper()
	c := New(
		NewIntDimension("age", 1, 100),
		NewIntDimension("year", 1987, 1996),
		NewCategoryDimension("state", "AZ", "CA", "NY", "TX"),
		NewCategoryDimension("type", "home", "auto", "health"),
	)
	records := []struct {
		rev  int64
		vals []any
	}{
		{100, []any{40, 1990, "CA", "auto"}},
		{250, []any{40, 1990, "CA", "auto"}}, // same cell: aggregates
		{75, []any{37, 1988, "NY", "auto"}},
		{30, []any{52, 1996, "TX", "auto"}},
		{999, []any{20, 1987, "AZ", "home"}},
		{45, []any{60, 1992, "CA", "health"}},
	}
	for _, r := range records {
		if err := c.Add(r.rev, r.vals...); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestDimensionRanks(t *testing.T) {
	age := NewIntDimension("age", 1, 100)
	if age.Size() != 100 {
		t.Fatalf("Size = %d", age.Size())
	}
	if r, err := age.Rank(37); err != nil || r != 36 {
		t.Fatalf("Rank(37) = (%d,%v)", r, err)
	}
	if _, err := age.Rank(0); err == nil {
		t.Fatal("Rank(0) should fail")
	}
	if _, err := age.Rank("x"); err == nil {
		t.Fatal("string rank on int dimension should fail")
	}
	if age.ValueAt(36) != "37" {
		t.Fatalf("ValueAt(36) = %q", age.ValueAt(36))
	}

	state := NewCategoryDimension("state", "AZ", "CA", "NY")
	if r, err := state.Rank("CA"); err != nil || r != 1 {
		t.Fatalf("Rank(CA) = (%d,%v)", r, err)
	}
	if _, err := state.Rank("ZZ"); err == nil {
		t.Fatal("unknown category should fail")
	}
	if _, err := state.Rank(3); err == nil {
		t.Fatal("int rank on categorical dimension should fail")
	}
	if state.ValueAt(2) != "NY" {
		t.Fatalf("ValueAt(2) = %q", state.ValueAt(2))
	}
	if _, err := state.Rank(3.5); err == nil {
		t.Fatal("float rank should fail")
	}
}

func TestDimensionConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewIntDimension("x", 5, 4) },
		func() { NewCategoryDimension("x") },
		func() { NewCategoryDimension("x", "a", "a") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("constructor did not panic")
				}
			}()
			f()
		}()
	}
}

func TestAddAggregates(t *testing.T) {
	c := insuranceCube(t)
	r, err := c.Region(Eq("age", 40), Eq("year", 1990), Eq("state", "CA"), Eq("type", "auto"))
	if err != nil {
		t.Fatal(err)
	}
	if got := naive.SumInt64(c.Data(), r, nil); got != 350 {
		t.Fatalf("aggregated cell = %d, want 350", got)
	}
}

func TestAddErrors(t *testing.T) {
	c := insuranceCube(t)
	if err := c.Add(1, 40, 1990, "CA"); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if err := c.Add(1, 400, 1990, "CA", "auto"); err == nil {
		t.Fatal("out-of-domain age accepted")
	}
}

// The paper's §1 example query: revenue from ages 37–52, years 1988–1996,
// all states, auto insurance.
func TestPaperIntroQuery(t *testing.T) {
	c := insuranceCube(t)
	r, err := c.Region(
		Between("age", 37, 52),
		Between("year", 1988, 1996),
		All("state"),
		Eq("type", "auto"),
	)
	if err != nil {
		t.Fatal(err)
	}
	want := ndarray.Region{
		{Lo: 36, Hi: 51}, // ages 37..52
		{Lo: 1, Hi: 9},   // years 1988..1996
		{Lo: 0, Hi: 3},   // all states
		{Lo: 1, Hi: 1},   // auto
	}
	if !r.Equal(want) {
		t.Fatalf("Region = %v, want %v", r, want)
	}
	// 100+250 (CA 1990) + 75 (NY 1988) + 30 (TX 1996) = 455.
	if got := naive.SumInt64(c.Data(), r, nil); got != 455 {
		t.Fatalf("intro query sum = %d, want 455", got)
	}
}

func TestRegionDefaultsAndErrors(t *testing.T) {
	c := insuranceCube(t)
	r, err := c.Region()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Equal(c.Data().Bounds()) {
		t.Fatalf("default region = %v", r)
	}
	if _, err := c.Region(Eq("bogus", 1)); err == nil {
		t.Fatal("unknown dimension accepted")
	}
	if _, err := c.Region(Eq("age", 40), Eq("age", 41)); err == nil {
		t.Fatal("double selection accepted")
	}
	if _, err := c.Region(Between("age", 52, 37)); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := c.Region(Between("age", 37, "x")); err == nil {
		t.Fatal("mistyped bound accepted")
	}
}

func TestCuboid(t *testing.T) {
	c := insuranceCube(t)
	// Group by (state, type): ages and years roll up to "all".
	g, err := c.Cuboid("state", "type")
	if err != nil {
		t.Fatal(err)
	}
	if g.Dims() != 2 {
		t.Fatalf("cuboid dims = %d", g.Dims())
	}
	r, err := g.Region(Eq("state", "CA"), Eq("type", "auto"))
	if err != nil {
		t.Fatal(err)
	}
	if got := naive.SumInt64(g.Data(), r, nil); got != 350 {
		t.Fatalf("CA/auto rollup = %d, want 350", got)
	}
	// Totals must be preserved.
	if got := naive.SumInt64(g.Data(), g.Data().Bounds(), nil); got != 1499 {
		t.Fatalf("cuboid total = %d, want 1499", got)
	}
	if _, err := c.Cuboid(); err == nil {
		t.Fatal("empty cuboid accepted")
	}
	if _, err := c.Cuboid("nope"); err == nil {
		t.Fatal("unknown dimension accepted")
	}
	if _, err := c.Cuboid("state", "state"); err == nil {
		t.Fatal("repeated dimension accepted")
	}
}

// TestSpecResolvesAsRegion: Spec resolves every selector of the HTTP grammar
// to the range, or the error, Region gives the Selector it names with each
// value an int when strconv.Atoi takes it — signs, leading zeros, int64's
// edges, spaces, empty and repeated "..", unknown and numeric categories.
func TestSpecResolvesAsRegion(t *testing.T) {
	c := New(NewIntDimension("age", -20, 60), NewCategoryDimension("state", "CA", "NY", "7", "", "a..b"))
	conv := func(s string) any {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
		return s
	}
	values := []string{"0", "3", "-3", "+3", "007", "-0", "+", "-", "", " 3", "3 ", "1_0", "60", "61", "-20", "-21",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "-9223372036854775809",
		"99999999999999999999", "CA", "NY", "7", "TX", "ca", "a", "b", "*"}
	for _, name := range []string{"age", "state"} {
		j, err := c.Index(name)
		if err != nil {
			t.Fatal(err)
		}
		var specs []string
		for _, lo := range values {
			specs = append(specs, lo)
			for _, hi := range values {
				specs = append(specs, lo+".."+hi)
			}
		}
		specs = append(specs, "..", "1..2..3", "a..b", "*..*")
		for _, spec := range specs {
			var sel Selector
			lo, hi, isRange := strings.Cut(spec, "..")
			switch {
			case isRange:
				sel = Between(name, conv(lo), conv(hi))
			case spec == "*":
				sel = All(name)
			default:
				sel = Eq(name, conv(spec))
			}
			want, werr := c.Region(sel)
			got, gerr := c.Dimension(j).Spec(spec)
			switch {
			case (werr == nil) != (gerr == nil) || werr != nil && werr.Error() != gerr.Error():
				t.Fatalf("%s=%q: error %v, Region's %v", name, spec, gerr, werr)
			case werr == nil && got != want[j]:
				t.Fatalf("%s=%q: %v, Region's %v", name, spec, got, want[j])
			}
		}
	}
	if _, err := c.Index("zz"); err == nil || err.Error() != `cube: unknown dimension "zz"` {
		t.Fatalf("Index(zz) = %v", err)
	}
}

// Over and Adopt take the cells given without copying them, and refuse cells
// of another shape.
func TestCubeAdoptsItsCells(t *testing.T) {
	dims := []*Dimension{NewIntDimension("x", 0, 2), NewIntDimension("y", 0, 1)}
	a := ndarray.New[int64](3, 2)
	c := Over(a, dims...)
	b := ndarray.New[int64](3, 2)
	c.Adopt(b)
	if c.Data() != b || &c.Data().Data()[0] != &b.Data()[0] || !slices.Equal(c.Shape(), []int{3, 2}) {
		t.Fatal("the cube does not hold the cells it adopted")
	}
	for name, f := range map[string]func(){
		"Over":  func() { Over(ndarray.New[int64](2, 3), dims...) },
		"Adopt": func() { c.Adopt(ndarray.New[int64](6)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s took cells of another shape", name)
				}
			}()
			f()
		}()
	}
}
