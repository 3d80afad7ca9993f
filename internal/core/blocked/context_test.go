package blocked

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"rangecube/internal/algebra"
	"rangecube/internal/metrics"
	"rangecube/internal/ndarray"
)

// cube512 is a 512×512 cube whose only block (b = 512) forces SumContext
// onto the direct-scan path for any region strictly inside the cube: the
// worst case for a slow query holding the server's read lock.
func cube512(t *testing.T) *Array[int64, algebra.IntSum] {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	a := ndarray.New[int64](512, 512)
	for i := range a.Data() {
		a.Data()[i] = int64(rng.Intn(1000))
	}
	return BuildInt(a, 512)
}

func TestSumContextMatchesSum(t *testing.T) {
	bl := cube512(t)
	r := ndarray.Region{{Lo: 1, Hi: 510}, {Lo: 1, Hi: 510}}
	want := bl.Sum(r, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := bl.SumContext(ctx, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("SumContext = %d, Sum = %d", got, want)
	}
	// The uncancelable fast path must agree too.
	if got, err := bl.SumContext(context.Background(), r, nil); err != nil || got != want {
		t.Fatalf("SumContext(Background) = %d, %v; want %d", got, err, want)
	}
}

func TestSumContextCanceledAbandonsScan(t *testing.T) {
	bl := cube512(t)
	r := ndarray.Region{{Lo: 1, Hi: 510}, {Lo: 1, Hi: 510}}
	var full metrics.Counter
	bl.Sum(r, &full)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var c metrics.Counter
	start := time.Now()
	_, err := bl.SumContext(ctx, r, &c)
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c.Total() >= full.Total() {
		t.Fatalf("canceled scan touched %d cells, full scan touches %d — no work was saved", c.Total(), full.Total())
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("canceled query took %v, want < 100ms", elapsed)
	}

	// With edge arrays at b = 256 the first boundary region of r2, the
	// 156×100 low corner, is planned as the single-dimension complement
	// C = {0}: B_0 × R_1 read from the edge array keeping dimension 1, minus
	// G_0 × R_1 read from the cube (10,100 reads, against 15,600 for R and
	// 15,857 for C = {0, 1}). A canceled ctx must abandon those terms too.
	edged := BuildWithEdges[int64, algebra.IntSum](bl.Cube(), []int{256, 256})
	r2 := ndarray.Region{{Lo: 100, Hi: 510}, {Lo: 156, Hi: 510}}
	p := piece{subRegion: subRegionOver(nil, 2)}
	w := edged.decompose(r2, nil)
	if w.next(&p.subRegion); p.keep != 0b11 {
		t.Fatalf("the first piece of %v is partial in dimensions %b, want both", r2, p.keep)
	}
	if edged.plan(&p); p.cmp != 0b01 {
		t.Fatalf("the low corner of %v is planned with C = %b, want {0}", r2, p.cmp)
	}
	full = metrics.Counter{}
	want := edged.Sum(r2, &full)
	if got, err := edged.SumContext(context.Background(), r2, nil); err != nil || got != want || want != bl.Sum(r2, nil) {
		t.Fatalf("edged SumContext(%v) = %d (err %v), Sum %d, the paper's structure %d", r2, got, err, want, bl.Sum(r2, nil))
	}
	c = metrics.Counter{}
	if _, err := edged.SumContext(ctx, r2, &c); err != context.Canceled {
		t.Fatalf("edged: err = %v, want context.Canceled", err)
	}
	if c.Total() >= full.Total() {
		t.Fatalf("edged: the canceled sum read %v, the full sum %v — no work was saved", &c, &full)
	}
}

// TestBoundsContextMatchesBounds holds SumBoundsContext's bounds to Bounds'
// and its sum to Sum's, and a canceled context to its error.
func TestBoundsContextMatchesBounds(t *testing.T) {
	a := ndarray.New[int64](64, 64)
	rng := rand.New(rand.NewSource(8))
	for i := range a.Data() {
		a.Data()[i] = int64(rng.Intn(100))
	}
	bl := BuildInt(a, 8)
	r := ndarray.Region{{Lo: 3, Hi: 60}, {Lo: 5, Hi: 59}}
	wantLo, wantHi := Bounds(bl, r, nil)
	wantSum := bl.Sum(r, nil)
	gotSum, gotLo, gotHi, err := SumBoundsContext(context.Background(), bl, r, nil)
	if err != nil || gotSum != wantSum || gotLo != wantLo || gotHi != wantHi {
		t.Fatalf("SumBoundsContext = %d in (%d, %d), %v; want %d in (%d, %d)", gotSum, gotLo, gotHi, err, wantSum, wantLo, wantHi)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := SumBoundsContext(ctx, bl, r, nil); err != context.Canceled {
		t.Fatalf("canceled SumBoundsContext err = %v", err)
	}
}
