package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rangecube/internal/cube"
	"rangecube/internal/naive"
	"rangecube/internal/ndarray"
	"rangecube/internal/persist"
	"rangecube/internal/shard"
)

// TestPushedSlabIsItsCopy holds the leader's /state body, encoded straight
// from the cube's runs, to the reference encoding of the slab's copy,
// WriteSnapshot(SlabCopy(...)), byte for byte: for every shard of a split
// along x (each slab one contiguous span of the cube) and along y (each slab
// a run per row). Each shard then holds its slab's cells.
func TestPushedSlabIsItsCopy(t *testing.T) {
	for _, shape := range [][2]int{{12, 7}, {7, 12}} {
		t.Run(fmt.Sprintf("%dx%d", shape[0], shape[1]), func(t *testing.T) {
			c := cube.New(cube.NewIntDimension("x", 0, shape[0]-1), cube.NewIntDimension("y", 0, shape[1]-1))
			for i := range c.Data().Data() {
				c.Data().Data()[i] = int64(i*7919%211) - 100
			}
			var mu sync.Mutex
			pushed := map[string][]byte{}
			tr := newTier(t, tierSpec{cube: c, shards: 3, hook: func(host string, r *http.Request) fault {
				if r.URL.Path == "/state" {
					b, _ := io.ReadAll(r.Body)
					r.Body = io.NopCloser(bytes.NewReader(b))
					mu.Lock()
					pushed[host] = b
					mu.Unlock()
				}
				return pass
			}})
			m := tr.leader.router.Map()
			if wantDim := ndarray.WidestDim(shape[:]); m.Dim() != wantDim || m.Shards() != 3 {
				t.Fatalf("%d shards split along %d, want 3 along %d", m.Shards(), m.Dim(), wantDim)
			}
			for i := range m.Shards() {
				slab := shard.SlabCopy(tr.oracle, m, i)
				var want bytes.Buffer
				if err := persist.WriteSnapshot(&want, 0, slab); err != nil {
					t.Fatal(err)
				}
				if got := pushed[fmt.Sprintf("shard%d", i)]; !bytes.Equal(got, want.Bytes()) {
					t.Errorf("shard %d: pushed %d bytes that differ from its copy's %d", i, len(got), want.Len())
				}
				if got := tr.shards[i].cube.Data(); !slices.Equal(got.Shape(), slab.Shape()) || !slices.Equal(got.Data(), slab.Data()) {
					t.Errorf("shard %d holds cells of shape %v that differ from its slab's", i, got.Shape())
				}
			}
		})
	}
}

// TestParkedPushHoldsUpNoOtherShard parks shard 0's boot-time /state push at
// the wire's gate until shard 1 has been pushed and marked up: the leader
// pushes every shard at once, so one shard that is slow to take its state
// delays no other. A leader that pushes one shard after the other never
// reaches shard 1 while shard 0 is parked, and the gate opens only after 5 s.
func TestParkedPushHoldsUpNoOtherShard(t *testing.T) {
	g := newGate()
	synced := make(chan struct{})
	var once sync.Once
	logf := func(format string, args ...any) {
		if strings.HasPrefix(fmt.Sprintf(format, args...), "server: shard 1 (http://shard1) synced") {
			once.Do(func() { close(synced) })
		}
	}
	var starved atomic.Bool
	go func() {
		select {
		case <-synced:
		case <-time.After(5 * time.Second):
			starved.Store(true)
		}
		g.open()
	}()
	tr := newTier(t, tierSpec{shards: 2, opts: Options{Logf: logf}, hook: func(host string, r *http.Request) fault {
		if host == "shard0" && r.URL.Path == "/state" {
			return g.hold(r)
		}
		return pass
	}})
	if starved.Load() {
		t.Fatal("shard 1 was not pushed and marked up while shard 0's /state push was parked")
	}
	if h := tr.leader.Health(); !h.Ready || len(h.ShardsDown) != 0 {
		t.Fatalf("after the parked push landed: %+v, want every shard up", h)
	}
	want := naive.SumInt64(tr.oracle, tr.region(0, 9, 0, 7), nil)
	if out, code := sumOf(t, tr.leader, "/query?op=sum&x=0..9&y=0..7"); code != http.StatusOK || out.Partial || out.Value != want {
		t.Fatalf("full sum %+v (status %d), want the exact %d", out, code, want)
	}
}

// TestPanickingPushFailsItsShardAlone panics shard 0's first /state push on
// the pushing goroutine. The panic is contained: the leader boots with shard
// 1 up and shard 0 down, and the resync loop, woken by it, brings shard 0 up.
func TestPanickingPushFailsItsShardAlone(t *testing.T) {
	var panicked atomic.Bool
	tr := newTier(t, tierSpec{shards: 2, hook: func(host string, r *http.Request) fault {
		if host == "shard0" && r.URL.Path == "/state" && panicked.CompareAndSwap(false, true) {
			panic("push")
		}
		return pass
	}})
	if !panicked.Load() {
		t.Fatal("shard 0's push never ran")
	}
	waitFor(t, "the resync loop to bring shard 0 up", func() bool { return tr.leader.Health().Ready })
	want := naive.SumInt64(tr.oracle, tr.region(0, 9, 0, 7), nil)
	if out, code := sumOf(t, tr.leader, "/query?op=sum&x=0..9&y=0..7"); code != http.StatusOK || out.Partial || out.Value != want {
		t.Fatalf("full sum %+v (status %d), want the exact %d", out, code, want)
	}
}
