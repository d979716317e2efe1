package graphstore

import "testing"

// recommendation graph: genres + similarity edges, directed.
func newRecommendGraph(t *testing.T) *Store {
	t.Helper()
	s := New("similar-items")
	nodes := []struct {
		id, genre, year string
	}{
		{"n1", "rock", "1992"},
		{"n2", "rock", "1989"},
		{"n3", "electronic", "1997"},
		{"n4", "triphop", "1994"},
		{"p1", "", ""}, // different label
	}
	for _, n := range nodes {
		label := "items"
		if n.id == "p1" {
			label = "people"
		}
		if err := s.AddNode(n.id, label, map[string]string{"genre": n.genre, "year": n.year}); err != nil {
			t.Fatal(err)
		}
	}
	add := func(from, to, typ string) {
		t.Helper()
		if err := s.AddEdge(from, to, typ); err != nil {
			t.Fatal(err)
		}
	}
	add("n1", "n2", "SIMILAR")
	add("n1", "n3", "SIMILAR")
	add("n2", "n4", "SIMILAR")
	add("n3", "n4", "BOUGHT_WITH")
	add("n1", "p1", "SIMILAR") // cross-label edge: filtered by dst label
	return s
}

func TestEdgePatternBasic(t *testing.T) {
	s := newRecommendGraph(t)
	out, err := s.Query(`MATCH (a:items)-[:SIMILAR]->(b:items) RETURN b`)
	if err != nil {
		t.Fatal(err)
	}
	// n2, n3 (from n1), n4 (from n2); p1 excluded by label.
	if len(out) != 3 {
		t.Fatalf("pattern returned %d nodes: %v", len(out), ids(out))
	}
}

func ids(nodes []*Node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.ID
	}
	return out
}

func TestEdgePatternConditionsOnBothVars(t *testing.T) {
	s := newRecommendGraph(t)
	out, err := s.Query(`MATCH (a:items)-[:SIMILAR]->(b:items) WHERE a.genre = 'rock' AND b.year > 1990 RETURN b`)
	if err != nil {
		t.Fatal(err)
	}
	// a in {n1, n2}; b with year > 1990: n3 (1997), n4 (1994). n2 (1989) out.
	if len(out) != 2 {
		t.Fatalf("conditioned pattern = %v", ids(out))
	}
	// Return the source side instead.
	out, err = s.Query(`MATCH (a:items)-[:SIMILAR]->(b:items) WHERE b.genre = 'triphop' RETURN a`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].ID != "n2" {
		t.Errorf("source-return pattern = %v", ids(out))
	}
}

func TestEdgePatternTypeAndLimit(t *testing.T) {
	s := newRecommendGraph(t)
	out, err := s.Query(`MATCH (a:items)-[:BOUGHT_WITH]->(b:items) RETURN b`)
	if err != nil || len(out) != 1 || out[0].ID != "n4" {
		t.Errorf("typed pattern = %v, %v", ids(out), err)
	}
	out, err = s.Query(`MATCH (a:items)-[:SIMILAR]->(b:items) RETURN b LIMIT 1`)
	if err != nil || len(out) != 1 {
		t.Errorf("limited pattern = %v, %v", ids(out), err)
	}
}

func TestEdgePatternDedup(t *testing.T) {
	s := newRecommendGraph(t)
	// n4 is reachable once; add a second path to it.
	s.AddEdge("n3", "n4", "SIMILAR")
	out, err := s.Query(`MATCH (a:items)-[:SIMILAR]->(b:items) WHERE b.genre = 'triphop' RETURN b`)
	if err != nil || len(out) != 1 {
		t.Errorf("dedup failed: %v, %v", ids(out), err)
	}
}

func TestEdgePatternErrors(t *testing.T) {
	s := newRecommendGraph(t)
	for _, q := range []string{
		`MATCH (a:items)-[:SIMILAR]->(a:items) RETURN a`,                 // same variable twice
		`MATCH (a:items)-[:SIMILAR]->(b:items) RETURN c`,                 // unknown return var
		`MATCH (a:items)-[:SIMILAR]->(b:items) WHERE c.x = '1' RETURN a`, // unknown cond var
		`MATCH (a:items)-[:SIMILAR]->(b:items) WHERE nonsense RETURN a`,
	} {
		if _, err := s.Query(q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
}

func TestClassifyQueryPattern(t *testing.T) {
	kind, ok := ClassifyQuery(`MATCH (a:items)-[:SIMILAR]->(b:items) RETURN b`)
	if !ok || kind != "pattern" {
		t.Errorf("ClassifyQuery = %q, %v", kind, ok)
	}
}

func TestEdgePatternDirectionality(t *testing.T) {
	s := newRecommendGraph(t)
	// n2 -> n4 exists; the reverse direction must not match.
	out, err := s.Query(`MATCH (a:items)-[:SIMILAR]->(b:items) WHERE a.genre = 'triphop' RETURN b`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("reverse direction matched: %v", ids(out))
	}
}
