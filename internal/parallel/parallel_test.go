package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(8))
	for _, n := range []int{0, 1, 7, 64, 1000} {
		seen := make([]int32, n)
		var mu sync.Mutex
		workers := map[int]bool{}
		For(n, n*Grain, func(lo, hi, w int) {
			mu.Lock()
			workers[w] = true
			mu.Unlock()
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		})
		for i, s := range seen {
			if s != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, s)
			}
		}
		for w := range workers {
			if w < 0 || w >= 8 {
				t.Fatalf("n=%d: worker index %d out of budget", n, w)
			}
		}
	}
}

func TestForSequentialFallback(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(8))
	calls := 0
	used := For(1000, Grain-1, func(lo, hi, w int) {
		calls++
		if lo != 0 || hi != 1000 || w != 0 {
			t.Fatalf("sequential fallback got (%d,%d,%d), want (0,1000,0)", lo, hi, w)
		}
	})
	if calls != 1 || used != 1 {
		t.Fatalf("below-grain work used %d chunks in %d calls, want 1 inline call", used, calls)
	}
}

func TestForDeterministicChunks(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(4))
	record := func() [][2]int {
		var mu sync.Mutex
		var got [][2]int
		For(103, 103*Grain, func(lo, hi, w int) {
			mu.Lock()
			defer mu.Unlock()
			if len(got) <= w {
				got = append(got, make([][2]int, w+1-len(got))...)
			}
			got[w] = [2]int{lo, hi}
		})
		return got
	}
	a, b := record(), record()
	if len(a) != len(b) {
		t.Fatalf("chunk counts differ between runs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("worker %d chunk differs between runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestWorkersOverride(t *testing.T) {
	prev := SetMaxWorkers(3)
	defer SetMaxWorkers(prev)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d with override 3", got)
	}
	SetMaxWorkers(0)
	if got := Workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers() = %d without override, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

// TestForParallelDisjointWrites exercises the pool under the race detector:
// workers write to disjoint slices of a shared array with no locking, which
// is exactly how the line kernels use For.
func TestForParallelDisjointWrites(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(8))
	n := 1 << 16
	data := make([]int64, n)
	For(n, n, func(lo, hi, w int) {
		for i := lo; i < hi; i++ {
			data[i] = int64(i)
		}
	})
	for i, v := range data {
		if v != int64(i) {
			t.Fatalf("data[%d] = %d", i, v)
		}
	}
}

// TestEachAnswersEveryIndexOnce: Each runs body(i) exactly once for every i
// in [0, n) — with one item (inline, no pool call), fewer items than
// workers, and many items on four workers — and counts its calls and workers
// in Stats as For does.
func TestEachAnswersEveryIndexOnce(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(4))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 64, 1000} {
		seen := make([]atomic.Int32, n)
		calls, chunks, _ := Stats()
		used := Each(n, n*Grain, func(i int) { seen[i].Add(1) })
		for i := range seen {
			if s := seen[i].Load(); s != 1 {
				t.Fatalf("n=%d: index %d answered %d times", n, i, s)
			}
		}
		after, afterChunks, active := Stats()
		switch {
		case n <= 1:
			if used != n || after != calls {
				t.Fatalf("n=%d: %d workers and %d pool calls, want %d inline and none", n, used, after-calls, n)
			}
		case used != min(n, 4) || after-calls != 1 || afterChunks-chunks != int64(used):
			t.Fatalf("n=%d: %d workers, %d calls, %d chunks counted", n, used, after-calls, afterChunks-chunks)
		}
		if active != 0 {
			t.Fatalf("n=%d: %d chunks still active after Each returned", n, active)
		}
	}
	if used := Each(100, Grain-1, func(int) {}); used != 1 {
		t.Fatalf("below the grain Each used %d workers, want 1", used)
	}
}

// TestEachClaimsItemsOneAtATime: workers take items one at a time, not in
// contiguous chunks, so while one worker is held on item 0 another runs
// every other item; split in halves, item 1 would wait behind item 0.
func TestEachClaimsItemsOneAtATime(t *testing.T) {
	defer SetMaxWorkers(SetMaxWorkers(2))
	const n = 6
	var rest sync.WaitGroup
	rest.Add(n - 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		Each(n, n*Grain, func(i int) {
			if i == 0 {
				rest.Wait()
				return
			}
			rest.Done()
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("item 0 waited 10 s for items another worker never claimed")
	}
}
