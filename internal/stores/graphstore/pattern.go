package graphstore

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// This file adds two-node edge patterns to the query language:
//
//	MATCH (a:Label1)-[:TYPE]->(b:Label2) [WHERE conds] RETURN a|b [LIMIT n]
//
// Edges are traversed in their stored direction. Conditions may reference
// both pattern variables (a.prop = 'x' AND b.weighted > 3). The RETURN
// variable selects which endpoint's nodes come back, de-duplicated in
// match order. This covers the marketing department's recommendation
// queries ("items similar to items matching ...") natively.

var edgePatternRE = regexp.MustCompile(
	`(?i)^\s*MATCH\s*\(\s*(\w+)\s*:\s*([\w-]+)\s*\)\s*-\s*\[\s*:\s*([\w-]+)\s*\]\s*->\s*\(\s*(\w+)\s*:\s*([\w-]+)\s*\)\s*(?:WHERE\s+(.*?)\s+)?RETURN\s+(\w+)\s*(?:LIMIT\s+(\d+)\s*)?$`)

// edgePattern is a parsed two-node pattern query.
type edgePattern struct {
	srcVar, srcLabel string
	edgeType         string
	dstVar, dstLabel string
	conds            map[string]conditions // variable -> its conditions
	returnVar        string
	limit            int
}

// parseEdgePattern parses the two-node form; ok is false when the query is
// not an edge pattern at all (callers then try the other forms).
func parseEdgePattern(q string) (*edgePattern, bool, error) {
	m := edgePatternRE.FindStringSubmatch(q)
	if m == nil {
		return nil, false, nil
	}
	p := &edgePattern{
		srcVar: m[1], srcLabel: m[2],
		edgeType: m[3],
		dstVar:   m[4], dstLabel: m[5],
		returnVar: m[7],
		limit:     -1,
		conds:     map[string]conditions{},
	}
	if p.srcVar == p.dstVar {
		return nil, true, fmt.Errorf("graphstore: pattern variables must differ, both are %q", p.srcVar)
	}
	if p.returnVar != p.srcVar && p.returnVar != p.dstVar {
		return nil, true, fmt.Errorf("graphstore: RETURN variable %q is not a pattern variable", p.returnVar)
	}
	if m[8] != "" {
		p.limit, _ = strconv.Atoi(m[8])
	}
	whereClause := strings.TrimSpace(m[6])
	if whereClause != "" {
		for _, part := range splitAnd(whereClause) {
			cm := condRE.FindStringSubmatch(strings.TrimSpace(part))
			if cm == nil {
				return nil, true, fmt.Errorf("graphstore: malformed condition %q", part)
			}
			if cm[1] != p.srcVar && cm[1] != p.dstVar {
				return nil, true, fmt.Errorf("graphstore: condition variable %q is not a pattern variable", cm[1])
			}
			val := strings.TrimSpace(cm[4])
			if len(val) >= 2 && val[0] == '\'' && val[len(val)-1] == '\'' {
				val = val[1 : len(val)-1]
			}
			p.conds[cm[1]] = append(p.conds[cm[1]], condition{prop: cm[2], op: strings.ToUpper(cm[3]), value: val})
		}
	}
	return p, true, nil
}

// queryEdgePattern executes a parsed edge pattern.
func (s *Store) queryEdgePattern(p *edgePattern) ([]*Node, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()

	typ := s.typeID(p.edgeType)
	seen := map[string]bool{}
	var out []*Node
	for _, srcID := range s.candidates(p.srcLabel, p.conds[p.srcVar]) {
		src := s.nodes[srcID]
		if ok, err := p.conds[p.srcVar].eval(src); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		for _, h := range s.adj[src.num].out {
			if h.typ != typ {
				continue
			}
			dst := s.byNum[h.other]
			if dst.Label != p.dstLabel {
				continue
			}
			if ok, err := p.conds[p.dstVar].eval(dst); err != nil {
				return nil, err
			} else if !ok {
				continue
			}
			result := src
			if p.returnVar == p.dstVar {
				result = dst
			}
			if seen[result.ID] {
				continue
			}
			seen[result.ID] = true
			out = append(out, result)
			if p.limit >= 0 && len(out) >= p.limit {
				return out, nil
			}
		}
	}
	return out, nil
}
