package conformance

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"rangecube/internal/client"
	"rangecube/internal/core/batchsum"
	"rangecube/internal/core/maxtree"
	"rangecube/internal/cube"
	"rangecube/internal/ndarray"
	"rangecube/internal/server"
)

// remoteShardEngine is the multi-process serving tier in miniature: the
// leader server holds the authoritative cube and scatter–gathers every sum
// across N shard servers it talks to over HTTP — each the moral equivalent
// of a `cubeserver -serve-shard` process, booted empty and fed its slab by
// the leader's /state push. Checkpoint crashes and recovers only the
// leader; re-attach must then re-push every recovered slab, so differential
// agreement after a checkpoint certifies the push-resync path, not just the
// local recovery path.
type remoteShardEngine struct {
	*serverEngine
	shards []*conformShard
}

type conformShard struct {
	s  *server.Server
	ts *httptest.Server
}

func startConformShard() (*conformShard, error) {
	s, err := server.NewWithOptions(cube.New(cube.NewIntDimension("d0", 0, 0)), server.Options{
		BlockSize:   2,
		Fanout:      2,
		AcceptState: true,
		Logf:        func(string, ...any) {},
	})
	if err != nil {
		return nil, fmt.Errorf("remote-shard engine: shard boot: %w", err)
	}
	return &conformShard{s: s, ts: httptest.NewServer(s.Handler())}, nil
}

func newRemoteShardVariant(env Env, a *ndarray.Array[int64], n int) (SumEngine, error) {
	e, cleanup, err := newRemoteShardTier(env, a, fmt.Sprintf("remote-shard/%d", n), n)
	if err != nil {
		return nil, err
	}
	return &cleanupEngine{SumEngine: e, cleanup: cleanup}, nil
}

// newRemoteShardTier boots n shard servers and the leader over them; cleanup
// removes the leader's directory once the engine is closed.
func newRemoteShardTier(env Env, a *ndarray.Array[int64], name string, n int) (*remoteShardEngine, func(), error) {
	dir, cleanup, err := env.tempDir()
	if err != nil {
		return nil, nil, err
	}
	var shards []*conformShard
	var urls []string
	closeShards := func() {
		for _, sh := range shards {
			sh.ts.Close()
			sh.s.Close()
		}
	}
	for i := 0; i < n; i++ {
		sh, err := startConformShard()
		if err != nil {
			closeShards()
			cleanup()
			return nil, nil, err
		}
		shards = append(shards, sh)
		urls = append(urls, sh.ts.URL)
	}
	base, err := newServerVariant(a, dir, name, false, func(o *server.Options) {
		o.ShardURLs = urls
		o.ShardTimeout = 5 * time.Second
	})
	if err != nil {
		closeShards()
		cleanup()
		return nil, nil, err
	}
	return &remoteShardEngine{serverEngine: base.(*serverEngine), shards: shards}, cleanup, nil
}

func (e *remoteShardEngine) Close() error {
	err := e.serverEngine.Close()
	for _, sh := range e.shards {
		sh.ts.Close()
		sh.s.Close()
	}
	return err
}

// remoteShardMaxEngine asks the same tier for extremes, the only conformance
// engine whose max/min cross a wire: each Extreme is a one-item POST
// /query/batch to the leader, which folds the shard servers' answers to its
// scatter frames in shard order. The harness's absolute-value §7 assignments
// become the deltas /update takes against a shadow of the cube. Checkpoint
// crash-recovers the leader alone, like the sum engine's.
type remoteShardMaxEngine struct {
	*remoteShardEngine
	cleanup func()
	op      string // "max" or "min"
	shadow  *ndarray.Array[int64]
	cl      *client.Client // retries the 503 an extreme gets while a shard is down
}

func newRemoteShardMax(env Env, a *ndarray.Array[int64], n int, isMin bool) (MaxEngine, error) {
	op := "max"
	if isMin {
		op = "min"
	}
	tier, cleanup, err := newRemoteShardTier(env, a, fmt.Sprintf("remote-shard-%s/%d", op, n), n)
	if err != nil {
		return nil, err
	}
	return &remoteShardMaxEngine{remoteShardEngine: tier, cleanup: cleanup, op: op, shadow: a.Clone(),
		cl: client.New(client.Options{})}, nil
}

func (e *remoteShardMaxEngine) IsMin() bool { return e.op == "min" }

func (e *remoteShardMaxEngine) Extreme(r ndarray.Region) (int64, bool, error) {
	if r.Empty() {
		return 0, false, nil // the selector syntax has no empty interval
	}
	sel := make(map[string]string, len(r))
	for j, rng := range r {
		sel[fmt.Sprintf("d%d", j)] = fmt.Sprintf("%d..%d", rng.Lo, rng.Hi)
	}
	var out struct {
		Results []struct {
			Result *struct {
				Value int64 `json:"value"`
				Empty bool  `json:"empty"`
			} `json:"result"`
			Error string `json:"error"`
		} `json:"results"`
	}
	if _, err := e.cl.DoJSON(context.Background(), http.MethodPost, e.ts.URL+"/query/batch",
		[]map[string]any{{"op": e.op, "select": sel}}, &out); err != nil {
		return 0, false, fmt.Errorf("%s: %w", e.name, err)
	}
	if len(out.Results) != 1 || out.Results[0].Result == nil {
		return 0, false, fmt.Errorf("%s: batch of one answered %+v", e.name, out.Results)
	}
	return out.Results[0].Result.Value, !out.Results[0].Result.Empty, nil
}

func (e *remoteShardMaxEngine) Assign(batch []maxtree.PointUpdate[int64]) error {
	deltas := make([]batchsum.IntUpdate, 0, len(batch))
	for _, u := range batch {
		if old := e.shadow.At(u.Coords...); u.Value != old {
			e.shadow.Set(u.Value, u.Coords...)
			deltas = append(deltas, batchsum.IntUpdate{Coords: u.Coords, Delta: u.Value - old})
		}
	}
	if len(deltas) == 0 {
		return nil // /update refuses an empty batch
	}
	return e.Apply(deltas)
}

func (e *remoteShardMaxEngine) Close() error {
	err := e.remoteShardEngine.Close()
	e.cleanup()
	return err
}
