package graphstore

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// The edge layout is storage, not semantics: seeded random histories of
// AddNode, AddEdge and DeleteNode must leave the store answering Neighbors,
// NEIGHBORS, edge-pattern MATCH and EdgeCount exactly as a plain
// map-of-slices model of the graph does — same nodes, same order — across
// self-loops, parallel duplicate edges, and ids deleted and added again.

// refGraph is the model: every edge is stored twice, in its source's out
// list and its target's in list, in insertion order.
type refGraph struct {
	labels  map[string]string   // node id -> label
	byLabel map[string][]string // label -> node ids in insertion order
	out, in map[string][]refEdge
	count   int
}

// refEdge is one edge of the model.
type refEdge struct{ From, To, Type string }

func newRefGraph() *refGraph {
	return &refGraph{
		labels:  map[string]string{},
		byLabel: map[string][]string{},
		out:     map[string][]refEdge{},
		in:      map[string][]refEdge{},
	}
}

func (m *refGraph) addNode(id, label string) error {
	if _, dup := m.labels[id]; dup {
		return fmt.Errorf("dup")
	}
	m.labels[id] = label
	m.byLabel[label] = append(m.byLabel[label], id)
	return nil
}

func (m *refGraph) addEdge(from, to, typ string) error {
	_, okFrom := m.labels[from]
	_, okTo := m.labels[to]
	if !okFrom || !okTo {
		return fmt.Errorf("unknown endpoint")
	}
	e := refEdge{From: from, To: to, Type: typ}
	m.out[from] = append(m.out[from], e)
	m.in[to] = append(m.in[to], e)
	m.count++
	return nil
}

// deleteNode drops the node and every edge touching it; the edges that
// remain keep their order.
func (m *refGraph) deleteNode(id string) bool {
	label, ok := m.labels[id]
	if !ok {
		return false
	}
	delete(m.labels, id)
	m.byLabel[label] = without(m.byLabel[label], id)
	m.count -= len(m.out[id])
	for _, e := range m.in[id] {
		if e.From != id {
			m.count--
		}
	}
	touches := func(e refEdge) bool { return e.From == id || e.To == id }
	for other := range m.out {
		m.out[other] = filterEdges(m.out[other], touches)
	}
	for other := range m.in {
		m.in[other] = filterEdges(m.in[other], touches)
	}
	delete(m.out, id)
	delete(m.in, id)
	return true
}

func without(ids []string, id string) []string {
	var out []string
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

func filterEdges(es []refEdge, drop func(refEdge) bool) []refEdge {
	var out []refEdge
	for _, e := range es {
		if !drop(e) {
			out = append(out, e)
		}
	}
	return out
}

func (m *refGraph) neighbors(id, typ string) (string, error) {
	if _, ok := m.labels[id]; !ok {
		return "", fmt.Errorf("graphstore: unknown node %q", id)
	}
	seen := map[string]bool{id: true}
	var out []string
	visit := func(other string) {
		if !seen[other] {
			seen[other] = true
			out = append(out, other)
		}
	}
	for _, e := range m.out[id] {
		if typ == "" || e.Type == typ {
			visit(e.To)
		}
	}
	for _, e := range m.in[id] {
		if typ == "" || e.Type == typ {
			visit(e.From)
		}
	}
	return strings.Join(out, ","), nil
}

// match answers an edge pattern over the model's out lists, evaluating the
// pattern's conditions on the store's nodes (node storage is not under test).
func (m *refGraph) match(s *Store, p *edgePattern) (string, error) {
	seen := map[string]bool{}
	var out []string
	for _, srcID := range m.byLabel[p.srcLabel] {
		src, _ := s.GetNode(srcID)
		if ok, err := p.conds[p.srcVar].eval(src); err != nil || !ok {
			if err != nil {
				return "", err
			}
			continue
		}
		for _, e := range m.out[srcID] {
			if e.Type != p.edgeType || m.labels[e.To] != p.dstLabel {
				continue
			}
			dst, _ := s.GetNode(e.To)
			if ok, err := p.conds[p.dstVar].eval(dst); err != nil || !ok {
				if err != nil {
					return "", err
				}
				continue
			}
			result := srcID
			if p.returnVar == p.dstVar {
				result = e.To
			}
			if seen[result] {
				continue
			}
			seen[result] = true
			out = append(out, result)
			if p.limit >= 0 && len(out) >= p.limit {
				return strings.Join(out, ","), nil
			}
		}
	}
	return strings.Join(out, ","), nil
}

func nodeIDs(nodes []*Node) string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.ID
	}
	return strings.Join(out, ",")
}

var (
	refLabels    = []string{"items", "items", "people"}
	refEdgeTypes = []string{"SIMILAR", "SIMILAR", "BOUGHT_WITH", "T"}
)

func randPattern(rng *rand.Rand) string {
	var conds []string
	for i := rng.Intn(3); i > 0; i-- {
		v := []string{"a", "b"}[rng.Intn(2)]
		op := []string{"=", "!=", "<", ">="}[rng.Intn(4)]
		conds = append(conds, fmt.Sprintf("%s.w %s %d", v, op, rng.Intn(4)))
	}
	q := fmt.Sprintf("MATCH (a:%s)-[:%s]->(b:%s) ",
		refLabels[rng.Intn(len(refLabels))], refEdgeTypes[rng.Intn(len(refEdgeTypes))], refLabels[rng.Intn(len(refLabels))])
	if len(conds) > 0 {
		q += "WHERE " + strings.Join(conds, " AND ") + " "
	}
	q += "RETURN " + []string{"a", "b"}[rng.Intn(2)]
	if rng.Intn(2) == 0 {
		q += fmt.Sprintf(" LIMIT %d", rng.Intn(5))
	}
	return q
}

// check compares every read of the edge layout against the model.
func (m *refGraph) check(t *testing.T, s *Store, rng *rand.Rand, maxID int, step int) {
	t.Helper()
	if got, want := s.EdgeCount(), m.count; got != want {
		t.Fatalf("step %d: EdgeCount = %d, model %d", step, got, want)
	}
	for i := 0; i < maxID; i++ {
		id := fmt.Sprintf("n%d", i)
		for _, typ := range []string{"", "SIMILAR", "BOUGHT_WITH", "T", "NONE"} {
			want, wantErr := m.neighbors(id, typ)
			nodes, err := s.Neighbors(id, typ)
			if got := nodeIDs(nodes); got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("step %d: Neighbors(%s, %q) = %s %v, model %s %v", step, id, typ, got, err, want, wantErr)
			}
			q := "NEIGHBORS " + id
			if typ != "" {
				q += " " + typ
			}
			nodes, err = s.Query(q)
			if got := nodeIDs(nodes); got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("step %d: %s = %s %v, model %s %v", step, q, got, err, want, wantErr)
			}
		}
	}
	for i := 0; i < 6; i++ {
		q := randPattern(rng)
		p, _, err := parseEdgePattern(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, wantErr := m.match(s, p)
		nodes, err := s.Query(q)
		if got := nodeIDs(nodes); got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("step %d: %s\n got %s %v\nwant %s %v", step, q, got, err, want, wantErr)
		}
	}
}

func TestEdgesMatchMapReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, m := New("g"), newRefGraph()
		maxID := 6 + rng.Intn(10)
		live := func() []string {
			var ids []string
			for i := 0; i < maxID; i++ {
				if _, ok := m.labels[fmt.Sprintf("n%d", i)]; ok {
					ids = append(ids, fmt.Sprintf("n%d", i))
				}
			}
			return ids
		}
		for step := 0; step < 150; step++ {
			switch r := rng.Intn(10); {
			case r < 3:
				id := fmt.Sprintf("n%d", rng.Intn(maxID))
				label := refLabels[rng.Intn(len(refLabels))]
				props := map[string]string{"w": fmt.Sprint(rng.Intn(4))}
				errS, errM := s.AddNode(id, label, props), m.addNode(id, label)
				if (errS == nil) != (errM == nil) {
					t.Fatalf("seed %d step %d: AddNode(%s) = %v, model %v", seed, step, id, errS, errM)
				}
			case r < 9:
				ids := live()
				pick := func() string {
					if len(ids) == 0 || rng.Intn(12) == 0 {
						return fmt.Sprintf("n%d", rng.Intn(maxID+2))
					}
					return ids[rng.Intn(len(ids))]
				}
				from := pick()
				to := from // a self-loop one time in five
				if rng.Intn(5) != 0 {
					to = pick()
				}
				typ := refEdgeTypes[rng.Intn(len(refEdgeTypes))]
				for dup := rng.Intn(4) / 3; dup >= 0; dup-- { // a parallel duplicate one time in four
					errS, errM := s.AddEdge(from, to, typ), m.addEdge(from, to, typ)
					if (errS == nil) != (errM == nil) {
						t.Fatalf("seed %d step %d: AddEdge(%s, %s) = %v, model %v", seed, step, from, to, errS, errM)
					}
				}
			default:
				id := fmt.Sprintf("n%d", rng.Intn(maxID))
				if got, want := s.DeleteNode(id), m.deleteNode(id); got != want {
					t.Fatalf("seed %d step %d: DeleteNode(%s) = %v, model %v", seed, step, id, got, want)
				}
			}
			if step%5 == 4 {
				m.check(t, s, rng, maxID+2, step)
			}
		}
		m.check(t, s, rng, maxID+2, 150)
	}
}

// maxHeapPerEdge bounds the live heap the store holds per edge beyond its
// nodes. On the test's shape, two Edge structs and a props map per edge held
// ~580 B; two pointer-free half-edges hold ~18 B.
const maxHeapPerEdge = 96

// TestHeapPerEdge guards the edge layout: 20k edges among 10k nodes must
// stay under maxHeapPerEdge bytes of live heap per edge.
func TestHeapPerEdge(t *testing.T) {
	const nNodes, nEdges = 10000, 20000
	s := New("g")
	for i := 0; i < nNodes; i++ {
		if err := s.AddNode(fmt.Sprintf("n%d", i), "items", map[string]string{"seq": fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(56))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < nEdges; i++ {
		from, to := fmt.Sprintf("n%d", i%nNodes), fmt.Sprintf("n%d", rng.Intn(nNodes))
		if err := s.AddEdge(from, to, "SIMILAR"); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEdge := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / nEdges
	runtime.KeepAlive(s)
	t.Logf("%.0f B of live heap per edge (%d edges)", perEdge, s.EdgeCount())
	if perEdge > maxHeapPerEdge {
		t.Errorf("store holds %.0f B of live heap per edge, want <= %d", perEdge, maxHeapPerEdge)
	}
}
