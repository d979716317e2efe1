package explain_test

import (
	"context"
	"encoding/json"
	"flag"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"

	"quepa/internal/augment"
	"quepa/internal/cluster"
	"quepa/internal/core"
	"quepa/internal/explain"
	"quepa/internal/netsim"
	"quepa/internal/rcache"
	"quepa/internal/resilience"
	"quepa/internal/telemetry"
	"quepa/internal/wire"
	"quepa/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden profiles in testdata/")

// capture runs one request the way the server does — under an "http <route>"
// root span — and returns its EXPLAIN profile. run returns the number of
// objects the request answered.
func capture(route string, run func(ctx context.Context) int) *explain.Profile {
	ctx, root := telemetry.StartSpan(context.Background(), "http "+route)
	defer root.End()
	root.SetAttr("objects", strconv.Itoa(run(ctx)))
	return explain.FromSpan(root)
}

// loopbackAddr masks the ephemeral ports a wire error message names.
var loopbackAddr = regexp.MustCompile(`127\.0\.0\.1:\d+`)

// normalize zeroes everything a clock decides — start, every wall_ms and
// backoff_ms — and masks ephemeral ports, leaving what the request did.
func normalize(p *explain.Profile) {
	p.Start = time.Time{}
	p.WallMS = 0
	if p.LocalQuery != nil {
		p.LocalQuery.WallMS = 0
	}
	for i := range p.Augmentations {
		a := &p.Augmentations[i]
		a.WallMS = 0
		for j := range a.Stores {
			a.Stores[j].WallMS = 0
		}
		for j := range a.Scatter {
			a.Scatter[j].WallMS = 0
		}
	}
	for i := range p.Fetches {
		p.Fetches[i].WallMS = 0
	}
	for i := range p.Retries {
		p.Retries[i].BackoffMS = 0
		p.Retries[i].Error = loopbackAddr.ReplaceAllString(p.Retries[i].Error, "127.0.0.1:PORT")
	}
}

// golden compares the normalized profile with testdata/<name>.json, or
// rewrites the file under -update.
func golden(t *testing.T, name string, p *explain.Profile) {
	t.Helper()
	if p == nil {
		t.Fatalf("%s: no profile", name)
	}
	normalize(p)
	got, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name+".json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run with -update to create it)", name, err)
	}
	if string(got) != string(want) {
		t.Errorf("%s: profile differs from %s\n got: %s\nwant: %s", name, path, got, want)
	}
}

func goldenWorkload(t *testing.T) *workload.Built {
	t.Helper()
	spec := workload.DefaultSpec()
	spec.Artists = 10
	spec.AlbumsPerArtist = 2
	built, err := workload.Build(spec, workload.Colocated())
	if err != nil {
		t.Fatal(err)
	}
	return built
}

const (
	goldenDB    = "transactions"
	twoOrigins  = `SELECT * FROM inventory WHERE seq < 2`
	oneOrigin   = `SELECT * FROM inventory WHERE seq < 1`
	goldenLevel = 1
)

// search profiles one augmented search.
func search(t *testing.T, aug *augment.Augmenter, query string) *explain.Profile {
	t.Helper()
	return capture("/search", func(ctx context.Context) int {
		answer, err := aug.Search(ctx, goldenDB, query, goldenLevel)
		if err != nil {
			t.Fatal(err)
		}
		return answer.Size()
	})
}

// TestGoldenProfiles pins the EXPLAIN profile, field for field, of every
// shape of request the stack serves: each strategy cold and warm, a result
// cache outcome hit, a degraded store, a retried wire round trip, a 2-peer
// cluster scatter (self and remote legs, then the scatter cache), and an
// exploration step.
func TestGoldenProfiles(t *testing.T) {
	built := goldenWorkload(t)

	t.Run("strategies", func(t *testing.T) {
		for _, s := range augment.Strategies {
			aug := augment.New(built.Poly, built.Index, augment.Config{Strategy: s, BatchSize: 4, ThreadsSize: 4, CacheSize: 1024})
			golden(t, "strategy-"+s.String()+"-cold", search(t, aug, twoOrigins))
			golden(t, "strategy-"+s.String()+"-warm", search(t, aug, twoOrigins))
		}
	})

	t.Run("rcache", func(t *testing.T) {
		aug := augment.New(built.Poly, built.Index, augment.Config{Strategy: augment.Sequential, CacheSize: 1024})
		aug.SetResultCache(rcache.New(64))
		golden(t, "rcache-cold", search(t, aug, oneOrigin))
		golden(t, "rcache-outcome-hit", search(t, aug, oneOrigin))
	})

	t.Run("degraded", func(t *testing.T) {
		poly := core.NewPolystore()
		for _, name := range built.Poly.Databases() {
			st, err := built.Poly.Database(name)
			if err != nil {
				t.Fatal(err)
			}
			if name == "catalogue" {
				st = netsim.NewChaos(st, netsim.FaultPlan{Down: []netsim.Window{{From: 1}}}, nil)
			}
			if err := poly.Register(st); err != nil {
				t.Fatal(err)
			}
		}
		aug := augment.New(poly, built.Index, augment.Config{Strategy: augment.Batch, BatchSize: 4, CacheSize: 1024})
		golden(t, "degraded-store", search(t, aug, twoOrigins))
	})

	t.Run("wire-retry", func(t *testing.T) {
		aug := augment.New(wireRetryPolystore(t, built), built.Index, augment.Config{Strategy: augment.Batch, BatchSize: 4, CacheSize: 1024})
		p := search(t, aug, twoOrigins)
		if p.Totals.WireRetries != 1 {
			t.Fatalf("wire retries = %d, want the one injected", p.Totals.WireRetries)
		}
		golden(t, "wire-retry", p)
	})

	t.Run("cluster", func(t *testing.T) {
		aug := twoPeerAugmenter(t)
		cold := search(t, aug, twoOrigins)
		shards := map[int]bool{}
		for _, a := range cold.Augmentations {
			for _, f := range a.Scatter {
				shards[f.Shard] = true
			}
		}
		if !shards[0] || !shards[1] {
			t.Fatalf("cold cluster search scattered to shards %v, want a self leg and a remote leg", shards)
		}
		golden(t, "cluster-cold", cold)
		golden(t, "cluster-warm", search(t, aug, twoOrigins))
	})

	t.Run("explore-step", func(t *testing.T) {
		aug := augment.New(built.Poly, built.Index, augment.Config{Strategy: augment.Sequential, CacheSize: 16})
		sess, starts, err := aug.Explore(context.Background(), goldenDB, `SELECT * FROM sales WHERE seq < 1`, nil)
		if err != nil {
			t.Fatal(err)
		}
		golden(t, "explore-step", capture("/explore/step", func(ctx context.Context) int {
			links, err := sess.Step(ctx, starts[0].GK)
			if err != nil {
				t.Fatal(err)
			}
			return len(links)
		}))
	})
}

// wireRetryPolystore re-homes every store of built behind a loopback wire
// server. The catalogue server stalls its first data request until the test
// ends, so the client's attempt deadline fires once and the retry, on a
// fresh connection, carries the answer.
func wireRetryPolystore(t *testing.T, built *workload.Built) *core.Polystore {
	t.Helper()
	release := make(chan struct{})
	poly := core.NewPolystore()
	for _, name := range built.Poly.Databases() {
		st, err := built.Poly.Database(name)
		if err != nil {
			t.Fatal(err)
		}
		if name == "catalogue" {
			st = netsim.NewChaos(st, netsim.FaultPlan{StallIn: []netsim.Window{{From: 1, To: 2}}, Stall: time.Hour},
				func(time.Duration) { <-release })
		}
		srv, err := wire.Serve(st, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		cli, err := wire.DialConfig(srv.Addr(), wire.ClientConfig{PoolSize: 1, Retry: resilience.RetryPolicy{
			MaxAttempts: 3, BaseBackoff: time.Millisecond, AttemptTimeout: 250 * time.Millisecond}})
		if err != nil {
			t.Fatal(err)
		}
		cli.SetSleep(func(time.Duration) {})
		t.Cleanup(cli.Close)
		if err := poly.Register(cli); err != nil {
			t.Fatal(err)
		}
	}
	// Cleanups run last-in first-out: the stalled request is released before
	// any server waits for it to drain.
	t.Cleanup(func() { close(release) })
	return poly
}

// twoPeerAugmenter brings up a 2-peer cluster — peer 1 served over a real
// wire listener, peer 0 local — and returns peer 0's augmenter: its own
// replica of every store, scatter-gather reach, and a scatter result cache.
func twoPeerAugmenter(t *testing.T) *augment.Augmenter {
	t.Helper()
	spec := workload.DefaultSpec()
	spec.Artists = 30
	spec.Customers = 60
	ring, err := cluster.NewRing(2, 16, 0)
	if err != nil {
		t.Fatal(err)
	}
	var (
		nodes []*cluster.Node
		local *workload.Built
		addrs = []string{"127.0.0.1:0"} // peer 0 is never dialed
	)
	for shard := 0; shard < 2; shard++ {
		built, err := workload.Build(spec, workload.Colocated())
		if err != nil {
			t.Fatal(err)
		}
		idx, err := cluster.BuildShard(built.Index, ring, shard)
		if err != nil {
			t.Fatal(err)
		}
		node := cluster.NewNode(shard, idx, built.Poly)
		nodes = append(nodes, node)
		if shard == 0 {
			local = built
			continue
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := wire.ServeOn(node, ln)
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, srv.Addr())
	}
	coord, err := cluster.NewCoordinator(cluster.Config{
		Ring:    ring,
		Peers:   addrs,
		Self:    0,
		Node:    nodes[0],
		Breaker: resilience.BreakerConfig{FailureThreshold: 2, Cooldown: time.Hour},
		Client:  wire.ClientConfig{Retry: resilience.RetryPolicy{MaxAttempts: 1, AttemptTimeout: 2 * time.Second}},
		Rcache:  rcache.New(1024),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	aug := augment.New(local.Poly, nodes[0].Index(), augment.Config{Strategy: augment.Batch, BatchSize: 4, CacheSize: 1024})
	aug.SetReacher(coord)
	return aug
}
