package graphstore

import (
	"strings"
	"testing"
)

func newSimilarItems(t *testing.T) *Store {
	t.Helper()
	s := New("similar-items")
	nodes := []struct {
		id    string
		props map[string]string
	}{
		{"n1", map[string]string{"title": "Wish", "year": "1992"}},
		{"n2", map[string]string{"title": "Disintegration", "year": "1989"}},
		{"n3", map[string]string{"title": "OK Computer", "year": "1997"}},
		{"n4", map[string]string{"title": "Dummy", "year": "1994"}},
	}
	for _, n := range nodes {
		if err := s.AddNode(n.id, "items", n.props); err != nil {
			t.Fatal(err)
		}
	}
	mustAddEdge := func(from, to string) {
		t.Helper()
		if err := s.AddEdge(from, to, "SIMILAR"); err != nil {
			t.Fatal(err)
		}
	}
	mustAddEdge("n1", "n2")
	mustAddEdge("n1", "n3")
	mustAddEdge("n4", "n1")
	return s
}

func TestAddNodeErrors(t *testing.T) {
	s := newSimilarItems(t)
	if err := s.AddNode("n1", "items", nil); err == nil {
		t.Error("duplicate node should fail")
	}
	if err := s.AddNode("", "items", nil); err == nil {
		t.Error("empty id should fail")
	}
	if err := s.AddNode("x", "", nil); err == nil {
		t.Error("empty label should fail")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	s := newSimilarItems(t)
	if err := s.AddEdge("ghost", "n1", "SIMILAR"); err == nil {
		t.Error("edge from unknown node should fail")
	}
	if err := s.AddEdge("n1", "ghost", "SIMILAR"); err == nil {
		t.Error("edge to unknown node should fail")
	}
}

func TestGetNodeAndBatch(t *testing.T) {
	s := newSimilarItems(t)
	n, ok := s.GetNode("n3")
	if title, _ := n.prop("title"); !ok || title != "OK Computer" {
		t.Errorf("GetNode = %+v, %v", n, ok)
	}
	if _, ok := s.GetNode("ghost"); ok {
		t.Error("missing node reported present")
	}
	nodes := s.GetNodes([]string{"n4", "ghost", "n1"})
	if len(nodes) != 2 || nodes[0].ID != "n4" || nodes[1].ID != "n1" {
		t.Errorf("GetNodes = %+v", nodes)
	}
}

func TestNeighborsBothDirections(t *testing.T) {
	s := newSimilarItems(t)
	ns, err := s.Neighbors("n1", "")
	if err != nil {
		t.Fatal(err)
	}
	// n1 -> n2, n1 -> n3 (out), n4 -> n1 (in): all three are neighbors.
	if len(ns) != 3 {
		t.Fatalf("Neighbors(n1) = %d nodes, want 3", len(ns))
	}
	ns, err = s.Neighbors("n1", "SIMILAR")
	if err != nil || len(ns) != 3 {
		t.Errorf("typed Neighbors = %d, %v", len(ns), err)
	}
	ns, err = s.Neighbors("n1", "BOUGHT_WITH")
	if err != nil || len(ns) != 0 {
		t.Errorf("Neighbors with absent type = %d, %v", len(ns), err)
	}
	if _, err := s.Neighbors("ghost", ""); err == nil {
		t.Error("Neighbors of unknown node should fail")
	}
}

func TestNeighborsNoDuplicates(t *testing.T) {
	s := New("g")
	s.AddNode("a", "l", nil)
	s.AddNode("b", "l", nil)
	s.AddEdge("a", "b", "T")
	s.AddEdge("b", "a", "T") // reciprocal edge: b appears once
	ns, err := s.Neighbors("a", "")
	if err != nil || len(ns) != 1 {
		t.Errorf("Neighbors with reciprocal edges = %d, %v", len(ns), err)
	}
}

func TestDeleteNode(t *testing.T) {
	s := newSimilarItems(t)
	edgesBefore := s.EdgeCount()
	if edgesBefore != 3 {
		t.Fatalf("EdgeCount = %d, want 3", edgesBefore)
	}
	if !s.DeleteNode("n1") {
		t.Fatal("DeleteNode existing returned false")
	}
	if s.DeleteNode("n1") {
		t.Error("DeleteNode missing returned true")
	}
	if _, ok := s.GetNode("n1"); ok {
		t.Error("deleted node still readable")
	}
	if s.EdgeCount() != 0 {
		t.Errorf("EdgeCount after deleting hub = %d, want 0", s.EdgeCount())
	}
	// Remaining nodes lost their edges to n1.
	ns, err := s.Neighbors("n2", "")
	if err != nil || len(ns) != 0 {
		t.Errorf("Neighbors(n2) after delete = %v, %v", ns, err)
	}
	// Label scan no longer includes n1.
	out, err := s.Query(`MATCH (n:items) RETURN n`)
	if err != nil || len(out) != 3 {
		t.Errorf("label scan after delete = %d, %v", len(out), err)
	}
}

func TestDeleteNodeSelfLoop(t *testing.T) {
	s := New("g")
	s.AddNode("a", "l", nil)
	s.AddEdge("a", "a", "T")
	if s.EdgeCount() != 1 {
		t.Fatalf("EdgeCount = %d", s.EdgeCount())
	}
	s.DeleteNode("a")
	if s.EdgeCount() != 0 {
		t.Errorf("EdgeCount after self-loop delete = %d", s.EdgeCount())
	}
}

func TestQueryMatch(t *testing.T) {
	s := newSimilarItems(t)
	tests := []struct {
		q    string
		want int
	}{
		{`MATCH (n:items) RETURN n`, 4},
		{`MATCH (n:items) RETURN n LIMIT 2`, 2},
		{`MATCH (n:items) WHERE n.year > 1990 RETURN n`, 3},
		{`MATCH (n:items) WHERE n.year > 1990 AND n.year < 1995 RETURN n`, 2},
		{`MATCH (n:items) WHERE n.title = 'Wish' RETURN n`, 1},
		{`MATCH (n:items) WHERE n.title != 'Wish' RETURN n`, 3},
		{`MATCH (n:items) WHERE n.title CONTAINS 'compute' RETURN n`, 1},
		{`MATCH (n:items) WHERE n.year <= 1989 RETURN n`, 1},
		{`MATCH (n:items) WHERE n.year >= 1997 RETURN n`, 1},
		{`MATCH (n:items) WHERE n.id = 'n2' RETURN n`, 1},
		{`MATCH (n:items) WHERE n.ghost = 'x' RETURN n`, 0},
		{`MATCH (n:ghosts) RETURN n`, 0},
		{`match (n:items) where n.year > 1990 return n`, 3}, // case-insensitive keywords
	}
	for _, tt := range tests {
		out, err := s.Query(tt.q)
		if err != nil {
			t.Errorf("Query(%s): %v", tt.q, err)
			continue
		}
		if len(out) != tt.want {
			t.Errorf("Query(%s) = %d nodes, want %d", tt.q, len(out), tt.want)
		}
	}
}

func TestQueryNeighbors(t *testing.T) {
	s := newSimilarItems(t)
	out, err := s.Query(`NEIGHBORS n1`)
	if err != nil || len(out) != 3 {
		t.Errorf("NEIGHBORS n1 = %d, %v", len(out), err)
	}
	out, err = s.Query(`NEIGHBORS n1 SIMILAR`)
	if err != nil || len(out) != 3 {
		t.Errorf("NEIGHBORS n1 SIMILAR = %d, %v", len(out), err)
	}
	if _, err := s.Query(`NEIGHBORS ghost`); err == nil {
		t.Error("NEIGHBORS of unknown node should fail")
	}
}

func TestQueryErrors(t *testing.T) {
	s := newSimilarItems(t)
	for _, q := range []string{
		`garbage`,
		`MATCH (n:items) RETURN m`, // variable mismatch
		`MATCH (n:items) WHERE m.year > 1990 RETURN n`, // condition variable mismatch
		`MATCH (n:items) WHERE n.year ~ 1990 RETURN n`, // bad operator
		`MATCH (n:items) WHERE gibberish RETURN n`,     // malformed condition
	} {
		if _, err := s.Query(q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
}

func TestLabels(t *testing.T) {
	s := New("g")
	s.AddNode("a", "zz", nil)
	s.AddNode("b", "aa", nil)
	got := s.Labels()
	if len(got) != 2 || got[0] != "aa" || got[1] != "zz" {
		t.Errorf("Labels() = %v", got)
	}
}

// TestNodePropsSortedAndShared pins the node layout AddNode builds: names
// sorted, consecutive nodes of one label with the same property names
// sharing one names slice, and a node whose names differ getting its own.
func TestNodePropsSortedAndShared(t *testing.T) {
	s := New("g")
	for _, n := range []struct {
		id    string
		props map[string]string
	}{
		{"a", map[string]string{"title": "x", "artist": "y", "year": "1"}},
		{"b", map[string]string{"year": "2", "title": "z", "artist": "w"}},
		{"c", map[string]string{"title": "only"}},
	} {
		if err := s.AddNode(n.id, "items", n.props); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := s.GetNode("a")
	b, _ := s.GetNode("b")
	c, _ := s.GetNode("c")
	if got := strings.Join(a.Names, ","); got != "artist,title,year" {
		t.Errorf("names = %s, want artist,title,year", got)
	}
	if &a.Names[0] != &b.Names[0] {
		t.Error("nodes with the same property names did not share their names slice")
	}
	if v, ok := b.prop("title"); !ok || v != "z" {
		t.Errorf("prop(title) = %q, %v", v, ok)
	}
	if len(c.Names) != 1 || &c.Names[0] == &a.Names[0] {
		t.Errorf("node c names = %v", c.Names)
	}
	if v, ok := c.prop("id"); !ok || v != "c" {
		t.Errorf("prop(id) = %q, %v, want the node id", v, ok)
	}
}
