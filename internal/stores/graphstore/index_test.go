package graphstore

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// An ordered index is an access path, not a second semantics: a graph with
// CreateIndex must answer every MATCH exactly as the same graph without it —
// same nodes, same order, same LIMIT cut — across property values that
// compare unusually and after any interleaving of node inserts, deletes and
// edge inserts.

var propValues = []string{
	"1", "1.0", "01", "1e0", "-0", "0", "2.5", "10", "9", "-3",
	"Inf", "-Inf", "NaN", "1e400", "abc", "ABC", "z", "", "a b",
}

type graphPair struct {
	t          *testing.T
	idx, plain *Store
}

func (p *graphPair) both(f func(s *Store) error) {
	p.t.Helper()
	if a, b := f(p.idx), f(p.plain); fmt.Sprint(a) != fmt.Sprint(b) {
		p.t.Fatalf("indexed %v, unindexed %v", a, b)
	}
}

func (p *graphPair) addNode(rng *rand.Rand, id int) {
	label := []string{"items", "items", "items", "other"}[rng.Intn(4)]
	props := map[string]string{"w": fmt.Sprint(rng.Intn(4))}
	if rng.Intn(8) != 0 {
		props["v"] = propValues[rng.Intn(len(propValues))]
	}
	if rng.Intn(6) == 0 {
		props["id"] = propValues[rng.Intn(len(propValues))]
	}
	p.both(func(s *Store) error {
		cp := map[string]string{}
		for k, v := range props {
			cp[k] = v
		}
		return s.AddNode(fmt.Sprintf("n%d", id), label, cp)
	})
}

func (p *graphPair) check(q string) {
	p.t.Helper()
	ids := func(s *Store) (string, error) {
		nodes, err := s.Query(q)
		var out []string
		for _, n := range nodes {
			out = append(out, n.ID)
		}
		return strings.Join(out, ","), err
	}
	got, err1 := ids(p.idx)
	want, err2 := ids(p.plain)
	if got != want || fmt.Sprint(err1) != fmt.Sprint(err2) {
		p.t.Fatalf("%s\nindexed:   %s %v\nunindexed: %s %v", q, got, err1, want, err2)
	}
}

func randGraphCond(rng *rand.Rand, v string) string {
	prop := []string{"v", "v", "w", "id"}[rng.Intn(4)]
	op := []string{"=", "<", "<=", ">", ">=", "!=", "CONTAINS"}[rng.Intn(7)]
	lit := propValues[rng.Intn(len(propValues))]
	if rng.Intn(2) == 0 || lit == "" || strings.Contains(lit, " ") {
		lit = "'" + lit + "'"
	}
	return fmt.Sprintf("%s.%s %s %s", v, prop, op, lit)
}

func randMatch(rng *rand.Rand) string {
	var conds []string
	for i := rng.Intn(3); i >= 0; i-- {
		conds = append(conds, randGraphCond(rng, "n"))
	}
	limit := ""
	if rng.Intn(3) == 0 {
		limit = fmt.Sprintf(" LIMIT %d", rng.Intn(4))
	}
	if rng.Intn(4) == 0 {
		ret := []string{"n", "m"}[rng.Intn(2)]
		return fmt.Sprintf("MATCH (n:items)-[:SIM]->(m:items) WHERE %s AND %s RETURN %s%s",
			strings.Join(conds, " AND "), randGraphCond(rng, "m"), ret, limit)
	}
	return fmt.Sprintf("MATCH (n:items) WHERE %s RETURN n%s", strings.Join(conds, " AND "), limit)
}

func TestIndexEquivalence(t *testing.T) {
	fixed := []string{
		`MATCH (n:items) WHERE n.v = 1 RETURN n`,
		`MATCH (n:items) WHERE n.v = '-0' RETURN n`,
		`MATCH (n:items) WHERE n.v < 2.5 RETURN n`,
		`MATCH (n:items) WHERE n.v >= 'Inf' RETURN n`,
		`MATCH (n:items) WHERE n.v = 'NaN' RETURN n`,
		`MATCH (n:items) WHERE n.v < 'abc' RETURN n`,
		`MATCH (n:items) WHERE n.v = 'abc' RETURN n`,
		`MATCH (n:items) WHERE n.v >= 0 AND n.v < 10 RETURN n`,
		`MATCH (n:items) WHERE n.v > 5 AND n.v < 1 RETURN n`,
		`MATCH (n:items) WHERE n.v >= 0 AND n.w = 2 RETURN n LIMIT 2`,
		`MATCH (n:items) WHERE n.id = 'n3' RETURN n`,
		`MATCH (n:items)-[:SIM]->(m:items) WHERE n.v < 10 RETURN m LIMIT 3`,
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := &graphPair{t: t, idx: New("idx"), plain: New("plain")}
		next := 0
		for ; next < 30; next++ {
			p.addNode(rng, next)
		}
		for _, prop := range []string{"v", "id"} {
			if err := p.idx.CreateIndex("items", prop); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range fixed {
			p.check(q)
		}
		for step := 0; step < 300; step++ {
			switch rng.Intn(8) {
			case 0: // a new id, or an old one: a duplicate or a re-insert
				if id := rng.Intn(next + 10); id < next {
					p.addNode(rng, id)
				} else {
					p.addNode(rng, next)
					next++
				}
			case 1:
				from, to := fmt.Sprintf("n%d", rng.Intn(next)), fmt.Sprintf("n%d", rng.Intn(next))
				p.both(func(s *Store) error { return s.AddEdge(from, to, "SIM") })
			case 2:
				id := fmt.Sprintf("n%d", rng.Intn(next))
				if a, b := p.idx.DeleteNode(id), p.plain.DeleteNode(id); a != b {
					t.Fatalf("DeleteNode(%s): %v vs %v", id, a, b)
				}
			default:
				p.check(randMatch(rng))
			}
		}
		for _, q := range fixed {
			p.check(q)
		}
	}
}

func TestCreateIndexErrors(t *testing.T) {
	s := newSimilarItems(t)
	if err := s.CreateIndex("items", "year"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex("items", "year"); err == nil {
		t.Error("duplicate index should fail")
	}
	if err := s.CreateIndex("", "year"); err == nil {
		t.Error("empty label should fail")
	}
	if err := s.CreateIndex("items", ""); err == nil {
		t.Error("empty property should fail")
	}
	if err := s.CreateIndex("later", "seq"); err != nil {
		t.Fatalf("index on a label with no nodes yet: %v", err)
	}
	if err := s.AddNode("l1", "later", map[string]string{"seq": "4"}); err != nil {
		t.Fatal(err)
	}
	if out, err := s.Query(`MATCH (n:later) WHERE n.seq < 5 RETURN n`); err != nil || len(out) != 1 {
		t.Errorf("indexed match on a new label = %v, %v", out, err)
	}
}
