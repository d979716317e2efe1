package main

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/url"
	"strconv"
	"strings"

	"quepa/internal/workload"
)

// Workload names. They are final: later issues cite them.
const (
	pointHot      = "point_hot"
	rangeCold     = "range_cold"
	clusterKeyed  = "cluster_keyed"
	exploreMutate = "explore_mutate"
)

var workloadNames = []string{pointHot, rangeCold, clusterKeyed, exploreMutate}

// serverScale is the -scale every workload's server runs at; the generator
// seed is fixed inside the server, so the dataset is identical on every run.
const serverScale = 16

// Fixed sizes of the request streams. Warm-up counts are what they are so
// the caches enter the timed phase in the same state on every run; the timed
// count is a cap, the run normally ends on --seconds first.
const (
	hotPool     = 2048 // inventory ids point_hot draws from; fits -rcache-cap 4096
	salesPool   = 1024 // sales explore_mutate starts sessions from
	rangeWidth  = 50   // objects per range_cold base query
	keyedWidth  = 16   // consecutive ids per cluster_keyed base query
	zipfS       = 1.1
	searchLevel = 2
	// One explore_mutate slot is a 6-request session interleaved with 8
	// point_hot-style searches.
	slotSearches  = 8
	sessionSteps  = 4
	checkRequests = 200
)

// opKind says what one stream element asks of the server.
type opKind uint8

const (
	opSearch  opKind = iota // GET /search
	opSession               // POST /explore, sessionSteps × /explore/step, /explore/finish
)

// op is one element of a request stream. A search is one request; a session
// is 2+sessionSteps requests whose step keys depend on the server's answers,
// so the stream fixes the start and the choice rule, not the keys.
type op struct {
	Kind  opKind
	DB    string
	Query string
	Level int
}

// requests returns how many HTTP requests the op issues.
func (o op) requests() int {
	if o.Kind == opSession {
		return 2 + sessionSteps
	}
	return 1
}

// head returns the shortest prefix of ops that issues at least n requests
// (all of ops when it issues fewer).
func head(ops []op, n int) []op {
	for i, o := range ops {
		if n <= 0 {
			return ops[:i]
		}
		n -= o.requests()
	}
	return ops
}

// searchPath renders the op as the request line the load generator sends.
func (o op) searchPath() string {
	return "/search?db=" + url.QueryEscape(o.DB) + "&q=" + url.QueryEscape(o.Query) + "&level=" + strconv.Itoa(o.Level)
}

func (o op) explorePath() string {
	return "/explore?db=" + url.QueryEscape(o.DB) + "&q=" + url.QueryEscape(o.Query)
}

// stream is a workload's request stream: a pure function of (workload, seed).
type stream struct {
	Warmup []op
	Timed  []op
}

// streamCounts are the ISSUE's sizes: warm-up ops and the cap on timed ops.
// explore_mutate counts slots; each slot expands to 1 session + 8 searches.
var streamCounts = map[string][2]int{
	pointHot:      {10000, 150000},
	rangeCold:     {1000, 10000},
	clusterKeyed:  {1000, 8000},
	exploreMutate: {200, 6000},
}

// streamSeed mixes the workload name into the seed so two workloads never
// share a random sequence.
func streamSeed(name string, seed int64, phase string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%s", name, seed, phase)
	return int64(h.Sum64() >> 1)
}

// buildStream generates the warm-up and timed streams of one workload.
func buildStream(name string, seed int64) (stream, error) {
	counts, ok := streamCounts[name]
	if !ok {
		return stream{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	spec := workload.DefaultSpec().Scale(serverScale)
	albums := spec.Albums()
	sales := albums * spec.SalesPerAlbum

	// Pools are drawn once per (workload, seed) and shared by both phases, so
	// the warm-up warms exactly the keys the timed phase asks for.
	poolRng := rand.New(rand.NewSource(streamSeed(name, seed, "pool")))
	hot := poolRng.Perm(albums)[:hotPool]
	starts := poolRng.Perm(sales)[:salesPool]

	gen := func(phase string, n int) []op {
		rng := rand.New(rand.NewSource(streamSeed(name, seed, phase)))
		hotZipf := rand.NewZipf(rng, zipfS, 1, hotPool-1)
		startZipf := rand.NewZipf(rng, zipfS, 1, salesPool-1)
		pointSearch := func() op {
			return op{Kind: opSearch, DB: "transactions", Level: searchLevel,
				Query: fmt.Sprintf("SELECT * FROM inventory WHERE id = 'a%d'", hot[hotZipf.Uint64()])}
		}
		var ops []op
		for i := 0; i < n; i++ {
			switch name {
			case pointHot:
				ops = append(ops, pointSearch())
			case rangeCold:
				ops = append(ops, rangeSearch(i%3, rng.Intn(albums-rangeWidth)))
			case clusterKeyed:
				ops = append(ops, keyedSearch(rng.Intn(albums-keyedWidth+1)))
			case exploreMutate:
				ops = append(ops, op{Kind: opSession, DB: "transactions",
					Query: fmt.Sprintf("SELECT * FROM sales WHERE id = 's%d'", starts[startZipf.Uint64()])})
				for s := 0; s < slotSearches; s++ {
					ops = append(ops, pointSearch())
				}
			}
		}
		return ops
	}
	return stream{Warmup: gen("warmup", counts[0]), Timed: gen("timed", counts[1])}, nil
}

// rangeSearch is the paper's test-bed shape (§VII-A): rangeWidth objects
// selected by seq, in the native language of one of the three scan stores.
func rangeSearch(store, a int) op {
	b := a + rangeWidth
	switch store {
	case 0:
		return op{Kind: opSearch, DB: "transactions", Level: searchLevel,
			Query: fmt.Sprintf("SELECT * FROM inventory WHERE seq >= %d AND seq < %d", a, b)}
	case 1:
		return op{Kind: opSearch, DB: "catalogue", Level: searchLevel,
			Query: fmt.Sprintf(`albums.find({"seq": {"$gte": %d, "$lt": %d}})`, a, b)}
	default:
		return op{Kind: opSearch, DB: "similar-items", Level: searchLevel,
			Query: fmt.Sprintf("MATCH (n:items) WHERE n.seq >= %d AND n.seq < %d RETURN n", a, b)}
	}
}

// keyedSearch is an index lookup of keyedWidth consecutive inventory ids.
func keyedSearch(start int) op {
	ids := make([]string, keyedWidth)
	for i := range ids {
		ids[i] = fmt.Sprintf("'a%d'", start+i)
	}
	return op{Kind: opSearch, DB: "transactions", Level: searchLevel,
		Query: "SELECT * FROM inventory WHERE id IN (" + strings.Join(ids, ", ") + ")"}
}

// chooseLink is the exploration choice rule: among the links not already on
// the path, in rank order, take the one a hash of (seed, current key) points
// at — so a start walks the same path until a promotion changes its links.
// It returns "" when every link is already on the path.
func chooseLink(seed int64, current string, links, path []string) string {
	var candidates []string
	for _, l := range links {
		onPath := false
		for _, p := range path {
			if p == l {
				onPath = true
				break
			}
		}
		if !onPath {
			candidates = append(candidates, l)
		}
	}
	if len(candidates) == 0 {
		return ""
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, current)
	return candidates[h.Sum64()%uint64(len(candidates))]
}

// writeStream renders a stream for audit, one request (or session rule) per line.
func writeStream(w io.Writer, ops []op) error {
	bw := bufio.NewWriter(w)
	for _, o := range ops {
		if o.Kind == opSession {
			fmt.Fprintf(bw, "POST %s ; %d x POST /explore/step (chooseLink) ; POST /explore/finish\n", o.explorePath(), sessionSteps)
			continue
		}
		fmt.Fprintf(bw, "GET %s\n", o.searchPath())
	}
	return bw.Flush()
}
