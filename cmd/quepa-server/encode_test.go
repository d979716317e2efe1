package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"quepa/internal/augment"
	"quepa/internal/core"
	"quepa/internal/explain"
	"quepa/internal/resilience"
	"quepa/internal/server"
	"quepa/internal/telemetry"
	"quepa/internal/workload"
)

// The reference encoder: the serving path as it was before the server's
// encoder (internal/server/encode.go) — the answer copied into objectJSON
// slices, held in a map[string]any and rendered by encoding/json with a
// two-space indent. The encoder must reproduce its output byte for byte.

type objectJSON struct {
	Key    string            `json:"key"`
	Fields map[string]string `json:"fields"`
	Prob   float64           `json:"prob,omitempty"`
	Dist   int               `json:"dist,omitempty"`
}

func toJSON(o core.Object) objectJSON {
	var fields map[string]string
	if !o.Fields.IsZero() {
		fields = make(map[string]string, o.Fields.Len())
		o.Fields.All(func(name, value string) bool {
			fields[name] = value
			return true
		})
	}
	return objectJSON{Key: o.GK.String(), Fields: fields}
}

// withFields builds an object from a field map; a nil map gives the zero
// Fields (null), where core.NewObject would give an empty one.
func withFields(gk core.GlobalKey, fields map[string]string) core.Object {
	if fields == nil {
		return core.Object{GK: gk}
	}
	return core.NewObject(gk, fields)
}

func objectsJSON(objs []core.Object) []objectJSON {
	out := make([]objectJSON, len(objs))
	for i, o := range objs {
		out[i] = toJSON(o)
	}
	return out
}

func augmentedJSON(aos []augment.AugmentedObject) []objectJSON {
	out := make([]objectJSON, len(aos))
	for i, ao := range aos {
		out[i] = toJSON(ao.Object)
		out[i].Prob = ao.Prob
		out[i].Dist = ao.Dist
	}
	return out
}

func refEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	return buf.Bytes()
}

// refSections adds the optional sections the way the old handlers did.
func refSections(resp map[string]any, degraded []augment.Degradation, profile *explain.Profile) map[string]any {
	if len(degraded) > 0 {
		resp["degraded"] = degraded
	}
	if profile != nil {
		resp["explain"] = profile
	}
	return resp
}

func refSearch(t testing.TB, original []core.Object, ranked []augment.AugmentedObject,
	degraded []augment.Degradation, profile *explain.Profile) []byte {
	return refEncode(t, refSections(map[string]any{
		"original":  objectsJSON(original),
		"augmented": augmentedJSON(ranked),
	}, degraded, profile))
}

func refStep(t testing.TB, links []augment.AugmentedObject, degraded []augment.Degradation, profile *explain.Profile) []byte {
	return refEncode(t, refSections(map[string]any{"links": augmentedJSON(links)}, degraded, profile))
}

func refExploreStart(t testing.TB, session string, objects []core.Object) []byte {
	return refEncode(t, map[string]any{"session": session, "objects": objectsJSON(objects)})
}

func refExploreFinish(t testing.TB, promoted bool, path []core.GlobalKey) []byte {
	keys := make([]string, len(path))
	for i, gk := range path {
		keys[i] = gk.String()
	}
	return refEncode(t, map[string]any{"promoted": promoted, "path": keys})
}

func refObjectLinks(t testing.TB, obj core.Object, rels []core.PRelation) []byte {
	type link struct {
		Key  string  `json:"key"`
		Type string  `json:"type"`
		Prob float64 `json:"prob"`
	}
	var links []link
	for _, rel := range rels {
		links = append(links, link{Key: rel.To.String(), Type: rel.Type.String(), Prob: rel.Prob})
	}
	return refEncode(t, map[string]any{"object": toJSON(obj), "links": links})
}

// sameBytes reports the first difference between an encoded body and the
// reference's.
func sameBytes(t testing.TB, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	from := max(i-60, 0)
	t.Errorf("%s: differs from the reference at byte %d (lengths %d vs %d):\n got  %q\n want %q",
		what, i, len(got), len(want), got[from:min(i+60, len(got))], want[from:min(i+60, len(want))])
}

// scaleOneServer builds a server over the full scale-1 dataset, breakers
// opening on the first failure so tests can force a degraded answer. It also
// returns the workload the server took over and a reference augmenter over
// it, at the server's base configuration, that computes the answers the
// bodies must encode.
func scaleOneServer(t testing.TB) (*server.Server, *workload.Built, *augment.Augmenter) {
	t.Helper()
	built, err := workload.Build(workload.DefaultSpec(), workload.Colocated())
	if err != nil {
		t.Fatal(err)
	}
	s := mustNew(t, server.Config{Workload: built, Breaker: resilience.BreakerConfig{FailureThreshold: 1}})
	ref := augment.New(built.Poly, built.Index,
		augment.Config{Strategy: augment.OuterBatch, BatchSize: 64, ThreadsSize: 8, CacheSize: 4096})
	return s, built, ref
}

// get serves one request through the full mux and returns the raw body.
func get(t testing.TB, mux http.Handler, method, target string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s %s = %d: %s", method, target, rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s %s: Content-Type = %q", method, target, ct)
	}
	return rec.Body.Bytes()
}

// reindented decodes a body's top-level keys and renders them through the
// reference encoder again. A body in the reference layout is a fixed point
// of that: sorted top-level keys, consistent indentation at every depth and
// the trailing newline all survive it unchanged. Used where the sections'
// content (an EXPLAIN profile's timings) cannot be reproduced independently.
func reindented(t testing.TB, body []byte) []byte {
	t.Helper()
	var top map[string]json.RawMessage
	if err := json.Unmarshal(body, &top); err != nil {
		t.Fatalf("body is not a JSON object: %v\n%s", err, body)
	}
	return refEncode(t, top)
}

// TestEncodeMatchesReference is the differential table over the scale-1
// dataset: every store's answers at levels 0-2, ranked with minp/topk down
// to an empty augmentation, plus every other hot route's body, through the
// handlers — bytes equal to the reference encoder's.
func TestEncodeMatchesReference(t *testing.T) {
	s, built, ref := scaleOneServer(t)
	mux := s.Handler()
	ctx := context.Background()
	ranks := []struct {
		minp float64
		topk int
	}{{0, 0}, {0.8, 0}, {0, 3}, {0.5, 10}, {1, 1}}

	for _, db := range built.QueryTargets() {
		query, err := built.Query(db, 7)
		if err != nil {
			t.Fatal(err)
		}
		target := "/search?db=" + db + "&q=" + url.QueryEscape(query)
		var answer *augment.Answer
		for level := 0; level <= 2; level++ {
			if answer, err = ref.Search(ctx, db, query, level); err != nil {
				t.Fatal(err)
			}
			if len(answer.Original) == 0 || len(answer.Augmented) == 0 {
				t.Fatalf("%s level %d: empty answer, the table would prove nothing", db, level)
			}
			for _, r := range ranks {
				what := fmt.Sprintf("%s&level=%d&minp=%v&topk=%d", target, level, r.minp, r.topk)
				sameBytes(t, what, get(t, mux, "GET", what),
					refSearch(t, answer.Original, answer.Rank(r.minp, r.topk), nil, nil))
			}
			// Nothing ranks above a probability of 1: the empty augmentation.
			none := answer.Rank(2, 0)
			got, err := server.AppendSearch(nil, answer.Original, none, nil, nil)
			if err != nil || len(none) != 0 {
				t.Fatalf("empty augmentation: %d objects, %v", len(none), err)
			}
			sameBytes(t, db+" empty augmented", got, refSearch(t, answer.Original, none, nil, nil))
		}

		// /object for an object with neighbours.
		origin := answer.Original[0]
		rels := built.Index.Neighbors(origin.GK)
		if len(rels) == 0 {
			t.Fatalf("%v has no p-relations", origin.GK)
		}
		sameBytes(t, "/object "+origin.GK.String(),
			get(t, mux, "GET", "/object?key="+url.QueryEscape(origin.GK.String())),
			refObjectLinks(t, origin, rels))

		// An exploration session: start, two steps, finish.
		start := get(t, mux, "POST", "/explore?db="+db+"&q="+url.QueryEscape(query))
		var started struct{ Session string }
		if err := json.Unmarshal(start, &started); err != nil || started.Session == "" {
			t.Fatalf("explore start: %v: %s", err, start)
		}
		sameBytes(t, db+" /explore", start, refExploreStart(t, started.Session, answer.Original))
		sess, _, err := ref.Explore(ctx, db, query, nil)
		if err != nil {
			t.Fatal(err)
		}
		next := origin.GK
		var path []core.GlobalKey
		for step := 0; step < 2; step++ {
			links, err := sess.Step(ctx, next)
			if err != nil || len(links) == 0 {
				t.Fatalf("reference step %d from %v: %d links, %v", step, next, len(links), err)
			}
			what := "/explore/step?session=" + started.Session + "&key=" + url.QueryEscape(next.String())
			sameBytes(t, what, get(t, mux, "POST", what), refStep(t, links, nil, nil))
			path = append(path, next)
			next = links[0].Object.GK
		}
		sameBytes(t, db+" /explore/finish",
			get(t, mux, "POST", "/explore/finish?session="+started.Session),
			refExploreFinish(t, false, path))
	}

	// Shapes the dataset does not produce.
	lonely := core.NewObject(core.NewGlobalKey("catalogue", "albums", "lonely"), map[string]string{})
	sameBytes(t, "/object without links", server.AppendObjectLinks(nil, lonely, nil), refObjectLinks(t, lonely, nil))
	sameBytes(t, "/explore/finish, empty path promoted",
		server.AppendExploreFinish(nil, true, nil), refExploreFinish(t, true, nil))
	sameBytes(t, "/explore without objects", server.AppendExploreStart(nil, "7", nil), refExploreStart(t, "7", nil))
	got, err := server.AppendStep(nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameBytes(t, "/explore/step without links", got, refStep(t, nil, nil, nil))
}

// TestPooledRankedAnswerLeavesCacheIntact: /search appends its ranked
// answer into pooled storage and clears it after the encode. A point search
// is memoized by the result cache on its first run and served from it
// afterwards, so if the pooled slice ever shared the cache's entry, the
// clear would blank the next body.
func TestPooledRankedAnswerLeavesCacheIntact(t *testing.T) {
	s, _, ref := scaleOneServer(t)
	mux := s.Handler()
	const db, q = "transactions", "SELECT * FROM inventory WHERE id = 'a7'"
	answer, err := ref.Search(context.Background(), db, q, 2)
	if err != nil || len(answer.Augmented) == 0 {
		t.Fatalf("fixture: %v, %d augmented", err, len(answer.Augmented))
	}
	want := refSearch(t, answer.Original, answer.Augmented, nil, nil)
	target := "/search?level=2&db=" + db + "&q=" + url.QueryEscape(q)
	for i := 0; i < 4; i++ {
		sameBytes(t, fmt.Sprintf("%s (run %d)", target, i), get(t, mux, "GET", target), want)
	}
}

// TestEncodeSectionsMatchReference: the spliced "degraded" and "explain"
// sections, alone and together, on both routes that carry them.
func TestEncodeSectionsMatchReference(t *testing.T) {
	_, built, ref := scaleOneServer(t)
	query, err := built.Query("transactions", 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, root := telemetry.StartSpan(context.Background(), "http /search")
	answer, err := ref.Search(ctx, "transactions", query, 1)
	if err != nil {
		t.Fatal(err)
	}
	profile := explain.FromSpan(root)
	root.End()
	if profile == nil || len(profile.Augmentations) == 0 {
		t.Fatalf("no profile recorded: %+v", profile)
	}
	degraded := []augment.Degradation{
		{Store: "catalogue", Reason: "breaker_open", Level: 1},
		{Store: "similar-<items>", Reason: `dial tcp: "refused" & gone`, Level: 0},
	}
	for _, c := range []struct {
		name     string
		degraded []augment.Degradation
		profile  *explain.Profile
	}{
		{"degraded", degraded, nil},
		{"explain", nil, profile},
		{"degraded+explain", degraded, profile},
	} {
		got, err := server.AppendSearch(nil, answer.Original, answer.Augmented, c.degraded, c.profile)
		if err != nil {
			t.Fatal(err)
		}
		sameBytes(t, "/search "+c.name, got, refSearch(t, answer.Original, answer.Augmented, c.degraded, c.profile))
		got, err = server.AppendStep(nil, answer.Augmented, c.degraded, c.profile)
		if err != nil {
			t.Fatal(err)
		}
		sameBytes(t, "/explore/step "+c.name, got, refStep(t, answer.Augmented, c.degraded, c.profile))
		// With the only array empty the sections are all there is.
		got, err = server.AppendStep(nil, nil, c.degraded, c.profile)
		if err != nil {
			t.Fatal(err)
		}
		sameBytes(t, "/explore/step no links "+c.name, got, refStep(t, nil, c.degraded, c.profile))
	}
}

// TestDegradedSearchBodyLayout forces the catalogue breaker open and checks
// the degraded /search body as a client receives it, with and without
// explain=1.
func TestDegradedSearchBodyLayout(t *testing.T) {
	s, built, ref := scaleOneServer(t)
	mux := s.Handler()
	breaker := storeBreaker(t, built, "catalogue")
	breaker.RecordFailure()
	if breaker.State() != resilience.Open {
		t.Fatal("catalogue breaker did not open")
	}
	query, err := built.Query("transactions", 3)
	if err != nil {
		t.Fatal(err)
	}
	target := "/search?db=transactions&level=1&q=" + url.QueryEscape(query)

	body := get(t, mux, "GET", target)
	// benchmark/load.go counts an answer as failed when it finds exactly this
	// literal: a "degraded" key at depth 1 of the two-space-indented body. A
	// compact or re-indented encoding would blind the ledger's fail_share.
	if !bytes.Contains(body, []byte("\n  \"degraded\":")) {
		t.Fatalf("degraded body lacks the depth-1 marker benchmark/load.go scans for:\n%s", body)
	}
	answer, err := ref.Search(context.Background(), "transactions", query, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(answer.Degraded) != 1 || answer.Degraded[0].Store != "catalogue" {
		t.Fatalf("degraded = %+v, want the catalogue store", answer.Degraded)
	}
	sameBytes(t, target, body, refSearch(t, answer.Original, answer.Augmented, answer.Degraded, nil))

	explained := get(t, mux, "GET", target+"&explain=1")
	for _, key := range []string{"\n  \"augmented\":", "\n  \"degraded\":", "\n  \"explain\":", "\n  \"original\":"} {
		if !bytes.Contains(explained, []byte(key)) {
			t.Errorf("explain=1 degraded body lacks %q", key)
		}
	}
	sameBytes(t, target+"&explain=1", explained, reindented(t, explained))
}

// encodeOne renders one object as both members of a /search body, through
// the encoder and through the reference.
func encodeOne(t testing.TB, o core.Object, prob float64, dist int) (got, want []byte) {
	t.Helper()
	original := []core.Object{o}
	ranked := []augment.AugmentedObject{{Object: o, Prob: prob, Dist: dist}}
	got, err := server.AppendSearch(nil, original, ranked, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return got, refSearch(t, original, ranked, nil, nil)
}

func FuzzEncodeObject(f *testing.F) {
	for _, s := range []string{
		"", "plain", `say "hi"`, `back\slash`, "<script>&amp;</script>", "tab\there\nnewline\r\b\f",
		"\x00\x01\x1f\x7f", "line\u2028sep\u2029arator", "café 日本語 \U0001F600",
		"\xff\xfe", "trunc\xe2\x82", "\xc3", "a.b.c", "\xe2.\x82.\xac",
	} {
		for _, prob := range []float64{0, 1, 0.8, 1e-7, 1e21, 1e-6, 123456789.125, 5e-324, 2.2250738585072014e-308, -0.0, -1.5e-9} {
			f.Add(s, "name", s, prob, 1)
			f.Add("db.coll.key", s, "value", prob, 0)
		}
	}
	f.Add("k", "", "", math.MaxFloat64, math.MinInt64)
	f.Fuzz(func(t *testing.T, key, fieldName, fieldValue string, prob float64, dist int) {
		if math.IsNaN(prob) || math.IsInf(prob, 0) {
			t.Skip("encoding/json rejects non-finite floats; probabilities are finite")
		}
		// The key is cut at arbitrary bytes so a split UTF-8 sequence lands
		// on both sides of the separators appendKey writes itself.
		gk := core.GlobalKey{Database: key[:len(key)/3], Collection: key[len(key)/3 : 2*len(key)/3], Key: key[2*len(key)/3:]}
		for i, fields := range []map[string]string{
			nil,
			{},
			{fieldName: fieldValue},
			{fieldName: fieldValue, fieldValue: fieldName, fieldName + fieldValue: "", "": key},
		} {
			got, want := encodeOne(t, withFields(gk, fields), prob, dist)
			sameBytes(t, fmt.Sprint("fields variant ", i), got, want)
			if !json.Valid(got) {
				t.Errorf("fields variant %d: not valid JSON:\n%s", i, got)
			}
		}
	})
}

// TestEncodeWideObject: a 40-field object encodes like the reference, and
// into a warm buffer without allocating: fields are walked in their stored
// order, so no width spills a sort to the heap.
func TestEncodeWideObject(t *testing.T) {
	fields := map[string]string{}
	for i := 0; i < 40; i++ {
		fields[fmt.Sprintf("f%02d", (i*7)%40)] = fmt.Sprint(i)
	}
	o := core.NewObject(core.NewGlobalKey("d", "c", "k"), fields)
	got, want := encodeOne(t, o, 0.5, 2)
	sameBytes(t, "40 fields", got, want)
	if raceEnabled {
		return // allocation counts are skewed under -race
	}
	original, ranked := []core.Object{o}, []augment.AugmentedObject{{Object: o, Prob: 0.5, Dist: 2}}
	buf := got
	if allocs := testing.AllocsPerRun(100, func() {
		buf, _ = server.AppendSearch(buf[:0], original, ranked, nil, nil)
	}); allocs != 0 {
		t.Errorf("encoding a 40-field object allocates %v per call, want 0", allocs)
	}
}

// benchAnswer returns n objects of a real level-2 answer, a fifth of them in
// the original result — the proportions of the ledger's point and range
// bodies.
func benchAnswer(tb testing.TB, built *workload.Built, ref *augment.Augmenter, n int) ([]core.Object, []augment.AugmentedObject) {
	tb.Helper()
	query, err := built.Query("transactions", 50)
	if err != nil {
		tb.Fatal(err)
	}
	answer, err := ref.Search(context.Background(), "transactions", query, 2)
	if err != nil {
		tb.Fatal(err)
	}
	orig := max(n/5, 1)
	if len(answer.Original) < orig || len(answer.Augmented) < n-orig {
		tb.Fatalf("answer has %d+%d objects, need %d+%d", len(answer.Original), len(answer.Augmented), orig, n-orig)
	}
	return answer.Original[:orig], answer.Augmented[:n-orig]
}

// TestEncoderAllocatesNothingWarm: into a warm buffer — what the server's
// buffer pool hands it — the encoder itself makes no allocation, whatever
// the body size.
func TestEncoderAllocatesNothingWarm(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed under -race")
	}
	_, built, ref := scaleOneServer(t)
	for _, n := range []int{5, 225} {
		original, ranked := benchAnswer(t, built, ref, n)
		var buf []byte
		encode := func() {
			body, err := server.AppendSearch(buf[:0], original, ranked, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			buf = body
		}
		encode() // grow the pooled buffer once
		if allocs := testing.AllocsPerRun(200, encode); allocs != 0 {
			t.Errorf("encoding %d objects allocates %v per call, want 0", n, allocs)
		}
	}
}

var benchSink []byte

// BenchmarkEncodeSearch times the encoder alone at the ledger's two body
// sizes: point_hot answers hold 5 objects, range_cold answers about 225.
func BenchmarkEncodeSearch(b *testing.B) {
	_, built, ref := scaleOneServer(b)
	for _, n := range []int{5, 225} {
		original, ranked := benchAnswer(b, built, ref, n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _ = server.AppendSearch(buf[:0], original, ranked, nil, nil)
			}
			benchSink = buf
			b.SetBytes(int64(len(buf)))
		})
	}
}

// discardWriter is a ResponseWriter that keeps nothing.
type discardWriter struct{ header http.Header }

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// BenchmarkHandleSearchWarm is the point_hot request inside the process: a
// primary-key query at level 2 answered from the result cache, through the
// real mux and its instrumentation, into a writer that discards the body.
func BenchmarkHandleSearchWarm(b *testing.B) {
	s, _, _ := scaleOneServer(b)
	mux := s.Handler()
	req := httptest.NewRequest("GET", "/search?level=2&db=transactions&q="+
		url.QueryEscape("SELECT * FROM inventory WHERE id = 'a7'"), nil)
	w := &discardWriter{header: http.Header{}}
	if body := get(b, mux, "GET", req.URL.String()); !bytes.Contains(body, []byte(`"prob"`)) {
		b.Fatalf("warm-up answer has no augmentation:\n%s", body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mux.ServeHTTP(w, req)
	}
}

// BenchmarkHandleSearchRange is the range_cold request inside the process: a
// 50-origin seq range of inventory at level 2, through the real mux and its
// instrumentation, into a writer that discards the body. Successive searches
// walk eight disjoint ranges; a multi-origin outcome is never memoized, so
// every search reaches, fetches, ranks and encodes its whole answer.
func BenchmarkHandleSearchRange(b *testing.B) {
	const ranges, width = 8, 50
	s, _, _ := scaleOneServer(b)
	mux := s.Handler()
	reqs := make([]*http.Request, ranges)
	for i := range reqs {
		q := fmt.Sprintf("SELECT * FROM inventory WHERE seq >= %d AND seq < %d", i*width, (i+1)*width)
		reqs[i] = httptest.NewRequest("GET", "/search?level=2&db=transactions&q="+url.QueryEscape(q), nil)
		if body := get(b, mux, "GET", reqs[i].URL.String()); !bytes.Contains(body, []byte(`"prob"`)) {
			b.Fatalf("warm-up answer has no augmentation:\n%s", body)
		}
	}
	w := &discardWriter{header: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mux.ServeHTTP(w, reqs[i%ranges])
	}
}
