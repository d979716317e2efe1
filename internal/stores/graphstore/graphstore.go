// Package graphstore implements an embedded property-graph store with a
// small Cypher-like pattern language. It stands in for the Neo4j instance of
// the paper's polystore: the marketing department's similar-items graph.
//
// Nodes have a string id, one label and string properties; edges are typed
// and carry nothing else. They are directed at insertion but traversed in
// both directions (similarity edges are symmetric in the running example).
//
// Edges are stored without pointers, so the garbage collector never scans
// them: AddNode gives every node a number, and each edge is two half-edges
// of integers, one in its source's out array and one in its target's in
// array, naming the other end by number. Edge types are interned.
//
// Query language (one statement per Query call):
//
//	MATCH (n:Label) RETURN n [LIMIT k]
//	MATCH (n:Label) WHERE n.prop = 'v' [AND n.prop2 > 3 ...] RETURN n [LIMIT k]
//	NEIGHBORS <id> [<edge-type>]
//
// WHERE supports the operators =, !=, <, >, <=, >= and CONTAINS, combined
// with AND. Property comparisons are numeric when both sides parse as
// numbers, string otherwise (CONTAINS is case-insensitive substring).
//
// CreateIndex declares an ordered index on one property of one label, as
// Neo4j's CREATE INDEX does. A MATCH whose conditions on that label's
// variable include =, <, <=, > or >= on the property against a number (or =
// against text) reads the index's candidates instead of every node of the
// label. Every condition is evaluated on each node read either way, so the
// answer, its order and LIMIT are the scan's.
package graphstore

import (
	"fmt"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"quepa/internal/stores/ordindex"
	"quepa/internal/telemetry"
)

// Node is a labelled vertex with string properties, held as parallel name
// and value slices sorted by name. They are built once, when the node is
// added, and only read afterwards: reads hand them out as they are (DESIGN
// §3.17). A node added right after another of its label with the same
// property names shares that node's names slice.
type Node struct {
	ID     string
	Label  string
	Names  []string
	Values []string
	num    int32 // the node number AddNode assigned: its place in Store.adj
}

// halfEdge is one end of an edge, held in its node's out or in array: the
// node number at the other end and the interned edge type. It holds no
// pointer, so the edge arrays are never scanned by the garbage collector
// (DESIGN §3.20).
type halfEdge struct {
	other int32
	typ   uint32
}

// adjacency is one node's half-edges in insertion order: out holds the
// edges it is the source of, in those it is the target of. A self-loop is
// in both.
type adjacency struct {
	out, in []halfEdge
}

// noType is an edge type id no edge has: what a lookup of a type never
// interned yields.
const noType = ^uint32(0)

// Store is an embedded property-graph database.
type Store struct {
	name      string
	mu        sync.RWMutex
	nodes     map[string]*Node
	byLabel   map[string][]string                   // label -> node ids in insertion order
	indexes   map[string]map[string]*ordindex.Index // label -> property -> ordered index
	propNames map[string][]string                   // label -> the names slice its last node got
	byNum     []*Node                               // node number -> node, nil once deleted
	adj       []adjacency                           // node number -> its half-edges
	// strs interns edge types; strIDs maps them back to their ids.
	strs      []string
	strIDs    map[string]uint32
	edgeCount int
	tel       telemetry.StoreOps
}

// New creates an empty graph database with the given name.
func New(name string) *Store {
	return &Store{
		name:      name,
		nodes:     map[string]*Node{},
		byLabel:   map[string][]string{},
		indexes:   map[string]map[string]*ordindex.Index{},
		propNames: map[string][]string{},
		strIDs:    map[string]uint32{},
		tel:       telemetry.NewStoreOps(name),
	}
}

// Name returns the database name.
func (s *Store) Name() string { return s.name }

// Labels lists node labels in sorted order.
func (s *Store) Labels() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	labels := make([]string, 0, len(s.byLabel))
	for l := range s.byLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels
}

// EdgeCount returns the number of edges in the graph.
func (s *Store) EdgeCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.edgeCount
}

// AddNode inserts a node. Duplicate ids are an error.
func (s *Store) AddNode(id, label string, props map[string]string) error {
	if id == "" || label == "" {
		return fmt.Errorf("graphstore: node id and label must be non-empty")
	}
	names := make([]string, 0, len(props))
	for name := range props {
		names = append(names, name)
	}
	sort.Strings(names)
	values := make([]string, len(names))
	for i, name := range names {
		values[i] = props[name]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.nodes[id]; dup {
		return fmt.Errorf("graphstore: duplicate node id %q", id)
	}
	if shared := s.propNames[label]; slices.Equal(shared, names) {
		names = shared
	} else {
		s.propNames[label] = names
	}
	n := &Node{ID: id, Label: label, Names: names, Values: values, num: int32(len(s.byNum))}
	s.nodes[id] = n
	s.byNum = append(s.byNum, n)
	s.adj = append(s.adj, adjacency{})
	s.byLabel[label] = append(s.byLabel[label], id)
	for prop, idx := range s.indexes[label] {
		idx.Insert(id, n.indexValue(prop))
	}
	return nil
}

// CreateIndex declares an ordered index on one property of the nodes of one
// label: the equivalent of Neo4j's CREATE INDEX FOR (n:label) ON (n.prop).
// Indexing the same label and property twice is an error.
func (s *Store) CreateIndex(label, prop string) error {
	if label == "" || prop == "" {
		return fmt.Errorf("graphstore: index label and property must be non-empty")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.indexes[label][prop]; dup {
		return fmt.Errorf("graphstore: index on :%s(%s) already exists", label, prop)
	}
	if s.indexes[label] == nil {
		s.indexes[label] = map[string]*ordindex.Index{}
	}
	s.indexes[label][prop] = ordindex.Build(s.byLabel[label], func(id string) ordindex.Value {
		return s.nodes[id].indexValue(prop)
	})
	return nil
}

// prop returns a property value; "id" falls back to the node id.
func (n *Node) prop(name string) (string, bool) {
	if i := sort.SearchStrings(n.Names, name); i < len(n.Names) && n.Names[i] == name {
		return n.Values[i], true
	}
	if name == "id" {
		return n.ID, true
	}
	return "", false
}

// indexValue places a property the way compareProps orders it; an absent
// property is residual.
func (n *Node) indexValue(prop string) ordindex.Value {
	v, ok := n.prop(prop)
	if !ok {
		return ordindex.Value{}
	}
	return ordindex.ParseValue(v)
}

// AddEdge inserts a typed edge; both endpoints must exist.
func (s *Store) AddEdge(from, to, edgeType string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	src, ok := s.nodes[from]
	if !ok {
		return fmt.Errorf("graphstore: unknown source node %q", from)
	}
	dst, ok := s.nodes[to]
	if !ok {
		return fmt.Errorf("graphstore: unknown target node %q", to)
	}
	typ := s.intern(edgeType)
	s.adj[src.num].out = append(s.adj[src.num].out, halfEdge{other: dst.num, typ: typ})
	s.adj[dst.num].in = append(s.adj[dst.num].in, halfEdge{other: src.num, typ: typ})
	s.edgeCount++
	return nil
}

// intern returns the id of an edge type, assigning the next one on first
// sight.
func (s *Store) intern(str string) uint32 {
	id, ok := s.strIDs[str]
	if !ok {
		id = uint32(len(s.strs))
		s.strs = append(s.strs, str)
		s.strIDs[str] = id
	}
	return id
}

// typeID returns an edge type's id without interning it: noType when no
// edge ever had the type.
func (s *Store) typeID(edgeType string) uint32 {
	if id, ok := s.strIDs[edgeType]; ok {
		return id
	}
	return noType
}

// GetNode retrieves one node by id. The boolean reports presence.
func (s *Store) GetNode(id string) (*Node, bool) {
	defer s.tel.Get.Since(telemetry.Now())
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[id]
	return n, ok
}

// GetNodes retrieves many nodes by id in one round trip, preserving the
// order of found ids and skipping missing ones.
func (s *Store) GetNodes(ids []string) []*Node {
	defer s.tel.GetBatch.Since(telemetry.Now())
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Node, 0, len(ids))
	for _, id := range ids {
		if n, ok := s.nodes[id]; ok {
			out = append(out, n)
		}
	}
	return out
}

// DeleteNode removes a node and all its incident edges, reporting whether
// the node existed.
func (s *Store) DeleteNode(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nodes[id]
	if !ok {
		return false
	}
	delete(s.nodes, id)
	ids := s.byLabel[n.Label]
	for i, cand := range ids {
		if cand == id {
			s.byLabel[n.Label] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	for _, idx := range s.indexes[n.Label] {
		idx.Retain(func(k string) bool { return k != id })
	}
	adj := &s.adj[n.num]
	for _, h := range adj.out {
		other := &s.adj[h.other]
		other.in = removeHalfEdge(other.in, n.num, h.typ)
		s.edgeCount--
	}
	for _, h := range adj.in {
		if h.other == n.num {
			continue // self-loop already counted above
		}
		other := &s.adj[h.other]
		other.out = removeHalfEdge(other.out, n.num, h.typ)
		s.edgeCount--
	}
	*adj = adjacency{}
	s.byNum[n.num] = nil
	return true
}

// removeHalfEdge removes the first half-edge of the given type whose other
// end is node num.
func removeHalfEdge(edges []halfEdge, num int32, typ uint32) []halfEdge {
	for i, h := range edges {
		if h.other == num && h.typ == typ {
			return append(edges[:i], edges[i+1:]...)
		}
	}
	return edges
}

// Neighbors returns the nodes adjacent to id (both directions), optionally
// restricted to one edge type, in edge-insertion order without duplicates.
func (s *Store) Neighbors(id, edgeType string) ([]*Node, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := s.nodes[id]
	if !ok {
		return nil, fmt.Errorf("graphstore: unknown node %q", id)
	}
	typ := s.typeID(edgeType)
	seen := map[int32]bool{}
	var out []*Node
	visit := func(h halfEdge) {
		if (edgeType != "" && h.typ != typ) || h.other == n.num || seen[h.other] {
			return
		}
		seen[h.other] = true
		out = append(out, s.byNum[h.other])
	}
	adj := s.adj[n.num]
	for _, h := range adj.out {
		visit(h)
	}
	for _, h := range adj.in {
		visit(h)
	}
	return out, nil
}

var (
	matchRE     = regexp.MustCompile(`(?i)^\s*MATCH\s*\(\s*(\w+)\s*:\s*([\w-]+)\s*\)\s*(?:WHERE\s+(.*?)\s+)?RETURN\s+(\w+)\s*(?:LIMIT\s+(\d+)\s*)?$`)
	neighborsRE = regexp.MustCompile(`(?i)^\s*NEIGHBORS\s+(\S+)(?:\s+(\S+))?\s*$`)
	condRE      = regexp.MustCompile(`^(\w+)\.([\w.]+)\s*(=|!=|<=|>=|<|>|CONTAINS)\s*(.+)$`)
)

// Query executes one statement of the pattern language.
func (s *Store) Query(q string) ([]*Node, error) {
	defer s.tel.Query.Since(telemetry.Now())
	if m := neighborsRE.FindStringSubmatch(q); m != nil {
		return s.Neighbors(m[1], m[2])
	}
	if p, isPattern, err := parseEdgePattern(q); isPattern {
		if err != nil {
			return nil, err
		}
		return s.queryEdgePattern(p)
	}
	m := matchRE.FindStringSubmatch(q)
	if m == nil {
		return nil, fmt.Errorf("graphstore: malformed query %q", q)
	}
	varName, label, whereClause, returnVar, limitStr := m[1], m[2], m[3], m[4], m[5]
	if returnVar != varName {
		return nil, fmt.Errorf("graphstore: RETURN variable %q does not match pattern variable %q", returnVar, varName)
	}
	limit := -1
	if limitStr != "" {
		limit, _ = strconv.Atoi(limitStr)
	}
	conds, err := parseConds(varName, whereClause)
	if err != nil {
		return nil, err
	}

	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*Node
	for _, id := range s.candidates(label, conds) {
		n := s.nodes[id]
		ok, err := conds.eval(n)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		out = append(out, n)
		if limit >= 0 && len(out) >= limit {
			break
		}
	}
	return out, nil
}

// condition is one WHERE comparison; conditions is an AND chain.
type condition struct {
	prop  string
	op    string
	value string
}

type conditions []condition

func (cs conditions) eval(n *Node) (bool, error) {
	for _, c := range cs {
		v, present := n.prop(c.prop)
		if !present {
			return false, nil
		}
		switch c.op {
		case "=":
			if compareProps(v, c.value) != 0 {
				return false, nil
			}
		case "!=":
			if compareProps(v, c.value) == 0 {
				return false, nil
			}
		case "<":
			if compareProps(v, c.value) >= 0 {
				return false, nil
			}
		case ">":
			if compareProps(v, c.value) <= 0 {
				return false, nil
			}
		case "<=":
			if compareProps(v, c.value) > 0 {
				return false, nil
			}
		case ">=":
			if compareProps(v, c.value) < 0 {
				return false, nil
			}
		case "CONTAINS":
			if !strings.Contains(strings.ToLower(v), strings.ToLower(c.value)) {
				return false, nil
			}
		default:
			return false, fmt.Errorf("graphstore: unknown operator %q", c.op)
		}
	}
	return true, nil
}

// candidates returns the ids of label's nodes that can satisfy cs, in
// insertion order: an ordered index's candidates when a condition on an
// indexed property allows it, every node of the label otherwise.
func (s *Store) candidates(label string, cs conditions) []string {
	var plan ordindex.Plan
	for _, c := range cs {
		idx := s.indexes[label][c.prop]
		if idx == nil {
			continue
		}
		if op, ok := ordindex.SymbolOp(c.op); ok {
			if r, ok := ordindex.ParseLiteral(op, c.value); ok {
				plan.And(idx, r)
			}
		}
	}
	if ids, ok := plan.Keys(); ok {
		return ids
	}
	return s.byLabel[label]
}

func compareProps(a, b string) int {
	fa, errA := strconv.ParseFloat(a, 64)
	fb, errB := strconv.ParseFloat(b, 64)
	if errA == nil && errB == nil {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a, b)
}

func parseConds(varName, whereClause string) (conditions, error) {
	whereClause = strings.TrimSpace(whereClause)
	if whereClause == "" {
		return nil, nil
	}
	var cs conditions
	for _, part := range splitAnd(whereClause) {
		m := condRE.FindStringSubmatch(strings.TrimSpace(part))
		if m == nil {
			return nil, fmt.Errorf("graphstore: malformed condition %q", part)
		}
		if m[1] != varName {
			return nil, fmt.Errorf("graphstore: condition variable %q does not match pattern variable %q", m[1], varName)
		}
		val := strings.TrimSpace(m[4])
		if len(val) >= 2 && val[0] == '\'' && val[len(val)-1] == '\'' {
			val = val[1 : len(val)-1]
		}
		cs = append(cs, condition{prop: m[2], op: strings.ToUpper(m[3]), value: val})
	}
	return cs, nil
}

// splitAnd splits on the AND keyword outside single-quoted strings.
func splitAnd(s string) []string {
	var parts []string
	depth := false // inside quotes
	last := 0
	upper := strings.ToUpper(s)
	for i := 0; i+5 <= len(s); i++ {
		if s[i] == '\'' {
			depth = !depth
		}
		if !depth && upper[i:i+5] == " AND " {
			parts = append(parts, s[last:i])
			last = i + 5
		}
	}
	parts = append(parts, s[last:])
	return parts
}

// ClassifyQuery reports whether a query string is syntactically one of the
// language's read statements, without executing it. The augmentation
// validator uses it to vet queries before submission.
func ClassifyQuery(q string) (kind string, ok bool) {
	if neighborsRE.MatchString(q) {
		return "neighbors", true
	}
	if edgePatternRE.MatchString(q) {
		return "pattern", true
	}
	if matchRE.MatchString(q) {
		return "match", true
	}
	return "", false
}
