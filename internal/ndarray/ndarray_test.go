package ndarray

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewShapeAndSize(t *testing.T) {
	a := New[int64](3, 4, 5)
	if a.Dims() != 3 {
		t.Fatalf("Dims = %d, want 3", a.Dims())
	}
	if a.Size() != 60 {
		t.Fatalf("Size = %d, want 60", a.Size())
	}
	wantStrides := []int{20, 5, 1}
	for i, s := range a.Strides() {
		if s != wantStrides[i] {
			t.Fatalf("Strides = %v, want %v", a.Strides(), wantStrides)
		}
	}
}

// TestCheckShape: the shapes New refuses come back as errors naming them,
// before anything is allocated, and the ones it takes as their cell count.
func TestCheckShape(t *testing.T) {
	if n, err := CheckShape[int64]([]int{3, 4, 5}); err != nil || n != 60 {
		t.Fatalf("CheckShape(3,4,5) = %d, %v; want 60", n, err)
	}
	for _, shape := range [][]int{{}, {0}, {3, -1}, {1 << 16, 1 << 16, 1 << 16}, {1 << 31, 1 << 31, 1 << 31}} {
		if _, err := CheckShape[int64](shape); err == nil {
			t.Errorf("CheckShape(%v) accepted the shape", shape)
		} else if len(shape) == 3 && shape[2] > 0 && !strings.Contains(err.Error(), fmt.Sprint(shape)) {
			t.Errorf("CheckShape(%v) = %v, want an error naming the shape", shape, err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", shape)
				}
			}()
			New[int64](shape...)
		}()
	}
	if _, err := CheckShape[bool]([]int{1 << 16, 1 << 16, 1 << 12}); err != nil {
		t.Errorf("CheckShape[bool] refused 2^44 one-byte cells: %v", err)
	}
}

// TestWidestDim: the widest dimension, the lowest index on ties.
func TestWidestDim(t *testing.T) {
	for _, c := range []struct {
		shape []int
		want  int
	}{{nil, 0}, {[]int{7}, 0}, {[]int{1, 1}, 0}, {[]int{10, 8}, 0}, {[]int{8, 10}, 1}, {[]int{1, 5, 5}, 1}, {[]int{4, 9, 2, 9}, 1}} {
		if got := WidestDim(c.shape); got != c.want {
			t.Errorf("WidestDim(%v) = %d, want %d", c.shape, got, c.want)
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][]int{{}, {0}, {3, -1}, {2, 0, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", shape)
				}
			}()
			New[int](shape...)
		}()
	}
}

func TestOffsetCoordsRoundTrip(t *testing.T) {
	a := New[int](4, 7, 3, 2)
	coords := make([]int, 4)
	for off := 0; off < a.Size(); off++ {
		got := a.Coords(off, coords)
		if back := a.Offset(got...); back != off {
			t.Fatalf("Offset(Coords(%d)) = %d", off, back)
		}
	}
}

func TestOffsetPanics(t *testing.T) {
	a := New[int](3, 3)
	cases := [][]int{{3, 0}, {0, 3}, {-1, 0}, {0}, {0, 0, 0}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Offset(%v) did not panic", c)
				}
			}()
			a.Offset(c...)
		}()
	}
}

func TestGetSet(t *testing.T) {
	a := New[int64](2, 3)
	a.Set(42, 1, 2)
	if got := a.At(1, 2); got != 42 {
		t.Fatalf("At(1,2) = %d, want 42", got)
	}
	if got := a.Data()[1*3+2]; got != 42 {
		t.Fatalf("row-major layout violated: data[5] = %d, want 42", got)
	}
}

func TestFromSlice(t *testing.T) {
	data := []int64{3, 5, 1, 2, 2, 3, 7, 3, 2, 6, 8, 2, 2, 4, 2, 3, 3, 5}
	a := FromSlice(data, 3, 6)
	if a.At(1, 3) != 6 {
		t.Fatalf("At(1,3) = %d, want 6", a.At(1, 3))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("FromSlice with wrong length did not panic")
			}
		}()
		FromSlice(data, 4, 4)
	}()
}

func TestFillVisitsRowMajor(t *testing.T) {
	a := New[int](2, 2, 2)
	var visited [][]int
	a.Fill(func(c []int) int {
		visited = append(visited, append([]int(nil), c...))
		return c[0]*4 + c[1]*2 + c[2]
	})
	if len(visited) != 8 {
		t.Fatalf("Fill visited %d cells, want 8", len(visited))
	}
	for off, c := range visited {
		if a.Offset(c...) != off {
			t.Fatalf("Fill visit order not row-major: step %d got %v", off, c)
		}
	}
	for off, v := range a.Data() {
		if v != off {
			t.Fatalf("data[%d] = %d, want %d", off, v, off)
		}
	}
}

func TestClone(t *testing.T) {
	a := New[int](2, 2)
	a.Set(7, 0, 1)
	b := a.Clone()
	b.Set(9, 0, 1)
	if a.At(0, 1) != 7 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestBounds(t *testing.T) {
	a := New[int](3, 5)
	want := Reg(0, 2, 0, 4)
	if !a.Bounds().Equal(want) {
		t.Fatalf("Bounds = %v, want %v", a.Bounds(), want)
	}
}

func TestStringSmall(t *testing.T) {
	a := FromSlice([]int{1, 2, 3, 4}, 2, 2)
	if a.String() == "" {
		t.Fatal("String() empty for 2-d array")
	}
	b := FromSlice([]int{1, 2, 3, 4, 5, 6, 7, 8}, 2, 2, 2)
	if b.String() == "" {
		t.Fatal("String() empty for 3-d array")
	}
	c := FromSlice([]int{1, 2}, 2)
	if c.String() == "" {
		t.Fatal("String() empty for 1-d array")
	}
}

// Property: Coords/Offset are mutually inverse for random shapes.
func TestOffsetCoordsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 1 + rng.Intn(4)
		shape := make([]int, d)
		for i := range shape {
			shape[i] = 1 + rng.Intn(6)
		}
		a := New[int](shape...)
		off := rng.Intn(a.Size())
		c := a.Coords(off, nil)
		return a.Offset(c...) == off
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
